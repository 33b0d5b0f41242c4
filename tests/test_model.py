import os
import stat
import textwrap

import numpy as np
import pytest
from scipy import stats

import oracles
from tailshift import (DomainError, ModelSpec, RngStream, SimulatorError,
                       SimulatorPool, analytic_tail_prob, evaluate_batch,
                       oriented_response, response_values)


class TestBuiltins:
    def test_identity_single_point(self):
        records = evaluate_batch(ModelSpec.identity(1), [[1.7]])
        assert records[0].value == 1.7
        assert records[0].index == 0

    def test_linear_dot_product(self):
        model = ModelSpec.linear(np.full(10, 2.0))
        records = evaluate_batch(model, np.ones((1, 10)))
        assert records[0].value == pytest.approx(20.0)

    def test_linear_sample_mean(self):
        model = ModelSpec.linear_family(50)
        pts = RngStream(5).generator.standard_normal((10_000, 50))
        values = response_values(model, pts)
        norm = np.linalg.norm(model.coefficient_stack())
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
        model = ModelSpec.external(command, 4)
        with SimulatorPool(command, 4) as pool:
            values = response_values(model, pts, pool)
        np.testing.assert_array_equal(values, pts[:, 0])

    def test_sum_model(self, tmp_path):
        command = write_sim(tmp_path, "sum.py", SUM_MODEL)
        pts = RngStream(4).generator.standard_normal((30, 5))
        model = ModelSpec.external(command, 5)
        with SimulatorPool(command, 5) as pool:
            values = response_values(model, pts, pool)
        np.testing.assert_allclose(values, pts.sum(axis=1), rtol=1e-12)

    def test_worker_count_does_not_change_values(self, tmp_path):
        command = write_sim(tmp_path, "sum.py", SUM_MODEL)
        pts = RngStream(5).generator.standard_normal((101, 3))
        model = ModelSpec.external(command, 3)
        outs = []
        for workers in (1, 3):
            with SimulatorPool(command, 3, workers=workers) as pool:
                outs.append(response_values(model, pts, pool))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_dead_simulator_raises_with_indices(self, tmp_path):
        command = write_sim(tmp_path, "die.py", DIE_AFTER_ONE)
        model = ModelSpec.external(command, 2)
        with SimulatorPool(command, 2) as pool:
            response_values(model, np.zeros((3, 2)), pool)
            with pytest.raises(SimulatorError) as err:
                response_values(model, np.zeros((4, 2)), pool)
        assert len(err.value.indices) > 0

    def test_non_finite_reply_rejected(self, tmp_path):
        command = write_sim(tmp_path, "nan.py", NAN_MODEL)
        model = ModelSpec.external(command, 2)
        with SimulatorPool(command, 2) as pool:
            with pytest.raises(SimulatorError) as err:
                response_values(model, np.zeros((3, 2)), pool)
        assert 0 in err.value.indices

    @pytest.mark.parametrize("workers", [1, 4])
    def test_failing_index_is_batch_position(self, tmp_path, workers):
        command = write_sim(tmp_path, "nan327.py", NAN_AT_327)
        model = ModelSpec.external(command, 2)
        pts = np.zeros((400, 2))
        pts[:, 0] = np.arange(400)
        with SimulatorPool(command, 2, workers=workers) as pool:
            with pytest.raises(SimulatorError) as err:
                response_values(model, pts, pool)
        assert err.value.indices == (327,)
