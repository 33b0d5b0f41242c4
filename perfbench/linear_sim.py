"""External simulator for the tailshift line protocol: the linear_family response.

Computes h(x) = sum(x[:10]) + 0.01 * sum(x[10:]), the same response as
``ModelSpec.linear_family(d)``, so the analytic tail probability is the
oracle.  Each batch is parsed with one numpy call, which keeps the simulator
cheap and leaves the engine's side of the protocol as the measured cost.

    python3 perfbench/linear_sim.py [--stats-dir DIR]

On end of input it exits 0 and, with --stats-dir, writes
``DIR/<pid>.json`` holding the bytes it read and wrote.  A malformed request
makes it exit 2 with a message on stderr.
"""

import argparse
import json
import os
import sys

# one simulator serves one worker; a multi-threaded BLAS in each of them
# would oversubscribe the cores the engine's pool is sized to
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

IMPORTANT = 10
MAJOR = 1.0
MINOR = 0.01


def linear_family_response(points):
    """Row-wise linear_family response; same operation order as the engine."""
    k = min(IMPORTANT, points.shape[1])
    out = points[:, :k] @ np.full(k, MAJOR)
    if points.shape[1] > k:
        out = out + points[:, k:] @ np.full(points.shape[1] - k, MINOR)
    return out


def _fail(message):
    sys.stderr.write(f"linear_sim: {message}\n")
    sys.exit(2)


def serve(stdin, stdout):
    """Answer EVAL requests until end of input; returns (bytes read, written)."""
    read = written = 0
    while True:
        header = stdin.readline()
        if not header:
            return read, written
        read += len(header)
        parts = header.split()
        if len(parts) != 3 or parts[0] != b"EVAL":
            _fail(f"malformed request header {header[:80]!r}")
        try:
            n, d = int(parts[1]), int(parts[2])
        except ValueError:
            _fail(f"malformed request header {header[:80]!r}")
        if n < 1 or d < 1:
            _fail(f"bad batch shape {n} x {d}")
        body = b"".join(stdin.readline() for _ in range(n))
        read += len(body)
        try:
            values = np.fromstring(body, sep=" ")
        except ValueError:
            _fail("batch body holds a token that is not a real")
        lines = body.count(b"\n")
        if values.size != n * d or lines != n:
            _fail(f"batch body holds {values.size} reals in {lines} lines, "
                  f"expected {n} x {d}")
        reply = "\n".join(map(repr, linear_family_response(
            values.reshape(n, d)).tolist())) + "\n"
        payload = reply.encode()
        stdout.write(payload)
        stdout.flush()
        written += len(payload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats-dir")
    args = parser.parse_args(argv)
    read, written = serve(sys.stdin.buffer, sys.stdout.buffer)
    if args.stats_dir:
        os.makedirs(args.stats_dir, exist_ok=True)
        path = os.path.join(args.stats_dir, f"{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"bytes_read": read, "bytes_written": written}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
