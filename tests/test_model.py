import math
import os
import stat
import sys
import textwrap
import threading

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

import oracles
from tailshift import (ConfigError, DomainError, ModelSpec, RngStream,
                       SimulatorError, SimulatorPool, analytic_tail_prob,
                       oriented_response, response_values)
from tailshift import model as model_module


class TestBuiltins:
    def test_identity_single_point(self):
        values = response_values(ModelSpec.identity(1), [[1.7]])
        assert values.tolist() == [1.7]

    def test_linear_dot_product(self):
        model = ModelSpec.linear(np.full(10, 2.0))
        values = response_values(model, np.ones((1, 10)))
        assert values.shape == (1,)
        assert values[0] == pytest.approx(20.0)

    def test_linear_sample_mean(self):
        model = ModelSpec.linear_family(50)
        pts = RngStream(5).generator.standard_normal((10_000, 50))
        values = response_values(model, pts)
        norm = np.linalg.norm(model.coeffs)
        assert abs(values.mean()) <= 4.0 * norm / np.sqrt(10_000)

    def test_batch_order_preserved_under_permutation(self):
        model = ModelSpec.linear_family(8)
        pts = RngStream(1).generator.standard_normal((64, 8))
        perm = RngStream(2).generator.permutation(64)
        base = response_values(model, pts)
        np.testing.assert_array_equal(response_values(model, pts[perm]), base[perm])

    def test_skewed_output_is_skewed(self):
        model = ModelSpec.skewed(3)
        pts = RngStream(7).generator.standard_normal((100_000, 3))
        skew = stats.skew(response_values(model, pts))
        assert skew > 0.5

    def test_dimension_checked(self):
        with pytest.raises(DomainError):
            response_values(ModelSpec.identity(2), np.zeros((4, 3)))

    @pytest.mark.parametrize("d", [1, 5])
    def test_identity_is_the_first_coordinate_bit_for_bit(self, d):
        points = RngStream(3).generator.standard_normal((1000, d))
        np.testing.assert_array_equal(
            response_values(ModelSpec.identity(d), points), points[:, 0])

    @pytest.mark.parametrize("d", [1, 10, 110])
    def test_linear_family_coefficients(self, d):
        coeffs = ModelSpec.linear_family(d).coeffs
        assert coeffs.shape == (d,)
        assert coeffs.tolist() == [1.0] * min(d, 10) + [0.01] * max(d - 10, 0)


class TestOrientation:
    def test_right_passthrough(self):
        assert oriented_response(ModelSpec.identity(1), 3.2) == 3.2

    def test_left_negates(self):
        assert oriented_response(ModelSpec.identity(1, tail="left"), 3.2) == -3.2

    def test_left_survivor_test(self):
        # threshold gamma = -5 turns into (-value >= 5)
        model = ModelSpec.identity(1, tail="left")
        gamma_o = oriented_response(model, -5.0)
        assert gamma_o == 5.0
        assert oriented_response(model, -6.0) >= gamma_o
        assert not oriented_response(model, -4.0) >= gamma_o


class TestAnalyticOracle:
    def test_identity_toy(self):
        assert analytic_tail_prob(ModelSpec.identity(1), 1.5) == pytest.approx(
            0.0668072, abs=5e-8)

    def test_unit_norm_linear(self):
        model = ModelSpec.linear([1.0])
        assert analytic_tail_prob(model, 4.0) == pytest.approx(
            oracles.normal_tail(4.0), rel=1e-12)

    def test_minus_infinity(self):
        assert analytic_tail_prob(ModelSpec.identity(1), -np.inf) == 1.0

    def test_left_tail(self):
        model = ModelSpec.identity(1, tail="left")
        assert analytic_tail_prob(model, -1.5) == pytest.approx(
            0.0668072, abs=5e-8)

    def test_no_oracle_for_skewed(self):
        assert analytic_tail_prob(ModelSpec.skewed(2), 1.0) is None

    @pytest.mark.parametrize("d, gamma, want", [
        (1, 4.0, 3.167124183311986e-05),
        (10, 12.74, 2.803808984367504e-05),
        (110, 12.74, 2.827909202968611e-05),
        (110, -12.74, 0.9999717209079703)])
    def test_linear_family_values(self, d, gamma, want):
        # the values the two-block coefficient layout gave, bit for bit
        assert analytic_tail_prob(ModelSpec.linear_family(d), gamma) == want
        left = ModelSpec.linear_family(d, tail="left")
        assert analytic_tail_prob(left, -gamma) == want


def mpmath_skewed_tail(gamma, d):
    """``oracles.skewed_tail`` as an mpmath quadrature at 40 digits, each
    root of g refined by ``mp.findroot``; the chi^2_(d-1) density beyond
    d - 1 + 2000 holds less than 1e-400 and is left out."""
    k = d - 1
    half = mp.mpf(k) / 2
    norm = 2 ** half * mp.gamma(half)

    def integrand(q):
        y = gamma - mp.mpf("0.05") * (q - k)
        x = mp.findroot(lambda x: x + x * x / 4 + x ** 3 / 10 - y,
                        oracles.skewed_root(float(y)))
        return mp.ncdf(-x) * q ** (half - 1) * mp.exp(-q / 2) / norm
    return float(mp.quad(integrand, [0, k, k + 2000]))


@pytest.mark.parametrize("d", [3, 10])
def test_skewed_tail_oracle_two_ways(d):
    # the coverage cells' truth for skewed(d), which the library has no
    # oracle for: an mpmath quadrature at p = 1e-6, and 2,000,000 plain
    # MC draws of the model at p = 1e-2 within 3 standard errors
    gamma = oracles.skewed_gamma(1e-6, d)
    assert oracles.skewed_tail(gamma, d) == pytest.approx(
        mpmath_skewed_tail(gamma, d), rel=1e-13)
    gamma, p, n = oracles.skewed_gamma(1e-2, d), 1e-2, 2_000_000
    model, gen = ModelSpec.skewed(d), np.random.default_rng(d)
    hits = sum(int((response_values(model, gen.standard_normal(
        (n // 10, d))) >= gamma).sum()) for _ in range(10))
    assert abs(hits / n - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


ECHO_FIRST = """\
#!/usr/bin/env python3
import sys
while True:
    header = sys.stdin.readline()
    if not header:
        break
    n, d = map(int, header.split()[1:])
    for _ in range(n):
        row = sys.stdin.readline().split()
        print(row[0])
    sys.stdout.flush()
"""

SUM_MODEL = """\
#!/usr/bin/env python3
import sys
while True:
    header = sys.stdin.readline()
    if not header:
        break
    n, d = map(int, header.split()[1:])
    for _ in range(n):
        vals = [float(v) for v in sys.stdin.readline().split()]
        print("%.17g" % sum(vals))
    sys.stdout.flush()
"""

DIE_AFTER_ONE = """\
#!/usr/bin/env python3
import sys
header = sys.stdin.readline()
n, d = map(int, header.split()[1:])
for _ in range(n):
    sys.stdin.readline()
    print("0.0")
sys.stdout.flush()
"""

NAN_MODEL = """\
#!/usr/bin/env python3
import sys
while True:
    header = sys.stdin.readline()
    if not header:
        break
    n, d = map(int, header.split()[1:])
    for _ in range(n):
        sys.stdin.readline()
        print("nan")
    sys.stdout.flush()
"""

NAN_AT_327 = """\
#!/usr/bin/env python3
import sys
while True:
    header = sys.stdin.readline()
    if not header:
        break
    n, d = map(int, header.split()[1:])
    for _ in range(n):
        x = float(sys.stdin.readline().split()[0])
        print("nan" if x == 327.0 else "%.17g" % x)
    sys.stdout.flush()
"""

OOPS_AT_7 = """\
#!/usr/bin/env python3
import sys
while True:
    header = sys.stdin.readline()
    if not header:
        break
    n, d = map(int, header.split()[1:])
    for _ in range(n):
        x = float(sys.stdin.readline().split()[0])
        print("oops" if x == 7.0 else "%.17g" % x)
    sys.stdout.flush()
"""

OOPS_THEN_STALL = """\
#!/usr/bin/env python3
import sys
import time
sys.stdin.readline()
sys.stdin.readline()
print("oops", flush=True)
time.sleep(600)
"""

REPLY_THEN_EXIT = """\
#!/usr/bin/env python3
import sys
n = int(sys.stdin.readline().split()[1])
sys.stdout.write("0.0\\n" * n)
"""

RECORD_REQUESTS = """\
#!/usr/bin/env python3
import os
import sys
path = sys.argv[1]
if os.path.isdir(path):
    path = os.path.join(path, str(os.getpid()))
with open(path, "w") as log:
    while True:
        header = sys.stdin.readline()
        if not header:
            break
        log.write(header)
        n, d = map(int, header.split()[1:])
        for _ in range(n):
            log.write(sys.stdin.readline())
            print("0")
        sys.stdout.flush()
"""


def per_value_text(points):
    return "".join(" ".join("%.16e" % v for v in row) + "\n"
                   for row in points.tolist())


def write_sim(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return f"python3 {path}"


class TestExternalProcess:
    def test_round_trip_is_bit_exact(self, tmp_path):
        # 17 significant digits reproduce every float64 exactly
        command = write_sim(tmp_path, "echo.py", ECHO_FIRST)
        pts = RngStream(3).generator.standard_normal((50, 4)) * 1e3
        with SimulatorPool(command) as pool:
            values = response_values(ModelSpec.external(pool, 4), pts)
        np.testing.assert_array_equal(values, pts[:, 0])

    def test_request_text_is_the_per_value_format(self, tmp_path):
        # one format string per row must write what "%.16e" % v per value
        # and a space between them writes, for awkward doubles too
        log = tmp_path / "requests.txt"
        command = write_sim(tmp_path, "record.py", RECORD_REQUESTS) + f" {log}"
        tiny = np.finfo(float).tiny
        pts = np.array([[-0.0, 0.0, 5e-324, tiny / 3.0],
                        [1e300, -1e300, 3.0, -42.0],
                        [1.0, 2.0 ** 53, 0.1, -1.7976931348623157e308]])
        with SimulatorPool(command) as pool:
            pool.evaluate(pts)
        want = "EVAL 3 4\n" + "".join(
            " ".join("%.16e" % v for v in row) + "\n" for row in pts)
        assert log.read_text() == want
        assert ("-0.0000000000000000e+00 0.0000000000000000e+00 "
                "4.9406564584124654e-324") in want

    @pytest.mark.parametrize("block_values", [1, 7, 8192, 10 ** 9])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_request_bytes_independent_of_blocks_and_workers(
            self, tmp_path, monkeypatch, block_values, workers):
        logs = tmp_path / "logs"
        logs.mkdir()
        command = write_sim(tmp_path, "record.py", RECORD_REQUESTS) + f" {logs}"
        pts = RngStream(8).generator.standard_normal((60, 7))
        pts[[3, 40], [2, 6]] = [0.0, np.nan]
        monkeypatch.setattr(model_module, "_BLOCK_VALUES", block_values)
        with SimulatorPool(command, workers=workers) as pool:
            pool.evaluate(pts)
        body = per_value_text(pts)
        # each simulator logs its chunk: the rows below one header line
        chunks = [path.read_text().split("\n", 1)[1]
                  for path in logs.iterdir()]
        assert len(chunks) == workers
        assert "".join(sorted(chunks, key=body.index)) == body

    def test_sum_model(self, tmp_path):
        command = write_sim(tmp_path, "sum.py", SUM_MODEL)
        pts = RngStream(4).generator.standard_normal((30, 5))
        with SimulatorPool(command) as pool:
            values = response_values(ModelSpec.external(pool, 5), pts)
        np.testing.assert_allclose(values, pts.sum(axis=1), rtol=1e-12)

    def test_worker_count_does_not_change_values(self, tmp_path):
        command = write_sim(tmp_path, "sum.py", SUM_MODEL)
        pts = RngStream(5).generator.standard_normal((101, 3))
        outs = []
        for workers in (1, 3):
            with SimulatorPool(command, workers=workers) as pool:
                outs.append(response_values(ModelSpec.external(pool, 3), pts))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_workers_beyond_cores_under_fast_thread_switching(self, tmp_path):
        # four chunk threads and their writers share two cores; a lost or
        # misplaced reply would break the sums
        command = write_sim(tmp_path, "sum.py", SUM_MODEL)
        gen = RngStream(14).generator
        batches = [gen.standard_normal((400, 3)) for _ in range(10)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SimulatorPool(command, workers=4) as pool:
                for pts in batches:
                    np.testing.assert_allclose(run_with_deadline(pool, pts),
                                               pts.sum(axis=1), rtol=1e-12)
        finally:
            sys.setswitchinterval(interval)

    def test_dead_simulator_raises_with_indices(self, tmp_path):
        command = write_sim(tmp_path, "die.py", DIE_AFTER_ONE)
        with SimulatorPool(command) as pool:
            model = ModelSpec.external(pool, 2)
            response_values(model, np.zeros((3, 2)))
            with pytest.raises(SimulatorError) as err:
                response_values(model, np.zeros((4, 2)))
        assert len(err.value.indices) > 0

    def test_simulator_that_stops_reading_fails_the_whole_batch(
            self, tmp_path):
        # every reply arrives, but the request no longer fits the pipe of a
        # simulator that has exited
        command = write_sim(tmp_path, "reply_exit.py", REPLY_THEN_EXIT)
        pool = SimulatorPool(command, workers=1)
        pts = RngStream(10).generator.standard_normal((5000, 50))
        err = run_with_deadline(pool, pts)
        pool.close()
        assert isinstance(err, SimulatorError)
        assert str(err) == ("simulator process died while receiving a batch: "
                            "[Errno 32] Broken pipe")
        assert err.indices == tuple(range(5000))

    def test_non_finite_reply_rejected(self, tmp_path):
        command = write_sim(tmp_path, "nan.py", NAN_MODEL)
        with SimulatorPool(command) as pool:
            with pytest.raises(SimulatorError) as err:
                response_values(ModelSpec.external(pool, 2), np.zeros((3, 2)))
        assert 0 in err.value.indices

    @pytest.mark.parametrize("workers", [1, 4])
    def test_failing_index_is_batch_position(self, tmp_path, workers):
        command = write_sim(tmp_path, "nan327.py", NAN_AT_327)
        pts = np.zeros((400, 2))
        pts[:, 0] = np.arange(400)
        with SimulatorPool(command, workers=workers) as pool:
            with pytest.raises(SimulatorError) as err:
                response_values(ModelSpec.external(pool, 2), pts)
        assert err.value.indices == (327,)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_unusable_after_failed_batch(self, tmp_path, workers):
        # the replies after a bad one stay unread; a later batch must not
        # read them as its own
        command = write_sim(tmp_path, "oops.py", OOPS_AT_7)
        with SimulatorPool(command, workers=workers) as pool:
            with pytest.raises(SimulatorError) as err:
                pool.evaluate(np.array([[1.0], [7.0], [3.0], [4.0]]))
            assert err.value.indices == (1,)
            assert "malformed simulator reply 'oops'" in str(err.value)
            with pytest.raises(SimulatorError) as err:
                pool.evaluate(np.array([[10.0], [11.0]]))
            assert err.value.indices == (0, 1)

    def test_simulator_may_reply_before_reading_the_whole_request(
            self, tmp_path):
        # 5000 replies overflow a 64 KB pipe while the engine still writes
        command = write_sim(tmp_path, "sum.py", SUM_MODEL)
        pts = RngStream(9).generator.standard_normal((5000, 5))
        pool = SimulatorPool(command, workers=1)
        out = run_with_deadline(pool, pts)
        pool.close()
        np.testing.assert_allclose(out, pts.sum(axis=1), rtol=1e-12)

    def test_failed_batch_leaves_no_writer_thread(self, tmp_path):
        # the simulator stops reading after one bad reply, which would
        # block a writer forever on the full pipe
        command = write_sim(tmp_path, "stall.py", OOPS_THEN_STALL)
        pool = SimulatorPool(command, workers=1)
        pts = RngStream(9).generator.standard_normal((5000, 5))
        err = run_with_deadline(pool, pts)
        pool.close()
        assert isinstance(err, SimulatorError)
        assert str(err) == "malformed simulator reply 'oops'"
        assert err.indices == (0,)
        assert not [t for t in threading.enumerate()
                    if t.name == "simulator-request-writer"]

    def test_failed_start_stops_the_simulators_already_started(
            self, tmp_path, monkeypatch):
        command = write_sim(tmp_path, "sum.py", SUM_MODEL)
        started = []
        popen = model_module.subprocess.Popen

        def popen_failing_second(*args, **kwargs):
            if started:
                raise OSError(11, "Resource temporarily unavailable")
            started.append(popen(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(model_module.subprocess, "Popen",
                            popen_failing_second)
        with pytest.raises(SimulatorError, match="cannot start simulator"):
            SimulatorPool(command, workers=3)
        [first] = started
        assert first.returncode is not None
        assert first.stdin.closed and first.stdout.closed


@pytest.fixture
def started(monkeypatch):
    """Every simulator process started while the test runs."""
    procs = []
    popen = model_module.subprocess.Popen

    def spy(*args, **kwargs):
        procs.append(popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(model_module.subprocess, "Popen", spy)
    return procs


class TestExternalModelInputs:
    def test_a_command_is_not_an_external_model(self, tmp_path, started):
        # the model is refused when it is built, not at its first evaluation
        command = write_sim(tmp_path, "sum.py", SUM_MODEL)
        with pytest.raises(ConfigError, match="requires a SimulatorPool"):
            ModelSpec.external(command, 3)
        assert not started

    @pytest.mark.parametrize("command", ["", " \t", None])
    def test_empty_command_starts_no_simulator(self, started, command):
        with pytest.raises(ConfigError,
                           match="^external model requires a command$"):
            SimulatorPool(command)
        assert not started


def run_with_deadline(pool, points, seconds=30.0):
    """pool.evaluate(points), or its SimulatorError; fails after a deadline."""
    outcome = []

    def target():
        try:
            outcome.append(pool.evaluate(points))
        except SimulatorError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    if thread.is_alive():
        pool.kill()
        thread.join(timeout=10.0)
        pytest.fail(f"batch still running after {seconds} s")
    return outcome[0]


class TestRequestEncoding:
    """The request bytes are "%.16e" % v per value, in every code path."""

    @staticmethod
    def encoded(points):
        points = np.asarray(points, dtype=float)
        return b"".join(bytes(block) for block in model_module._request(points))

    def check(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        want = ("EVAL %d %d\n" % points.shape + per_value_text(points)).split("\n")
        got = self.encoded(points).decode().split("\n")
        assert len(got) == len(want)
        # the first differing line only: a diff of the whole text is slow
        assert next(((g, w) for g, w in zip(got, want) if g != w), None) is None

    def test_awkward_doubles(self):
        tiny = np.finfo(float).tiny
        big = np.finfo(float).max
        values = [0.0, -0.0, 5e-324, tiny / 3.0, tiny, 1e300, -1e300, big,
                  -big, 2.0 ** 53, 2.0 ** 53 + 2, 0.1, -0.1, 1.0, -1.0,
                  9.9999999999999999, 0.99999999999999999, 99999999999999999.0,
                  np.inf, -np.inf, np.nan]
        self.check(np.array(values)[:, None])

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([10.0 ** k for k in range(-8, 18)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)])
        # one value per row exercises the per-row path on its own rows,
        # one row of all of them the per-row path inside a plain block
        self.check(values[:, None])
        self.check(-values[:, None])
        self.check(values[None, :])

    def test_exact_ties_round_half_to_even(self):
        # m + 1/4 and m + 3/4 are doubles for 2**50 <= m < 2**51 (about
        # 1.1e15 to 2.3e15), and each has 18 significant digits ending in 5
        base = RngStream(10).generator.integers(2 ** 50, 2 ** 51, 200)
        values = np.concatenate([base + 0.25, base + 0.75]).astype(float)
        assert np.all(values % 1.0 > 0)
        self.check(values[:, None])

    def test_random_magnitudes(self):
        gen = RngStream(11).generator
        values = (gen.standard_normal(200_000)
                  * 10.0 ** gen.uniform(-9.0, 19.0, 200_000))
        self.check(values.reshape(-1, 8))

    def test_random_bit_patterns(self):
        bits = RngStream(12).generator.integers(0, 2 ** 64, 50_000,
                                                dtype=np.uint64)
        self.check(bits.view(float).reshape(-1, 5))

    def test_standard_normal_batches(self):
        pts = RngStream(13).generator.standard_normal((3000, 110))
        self.check(pts)
