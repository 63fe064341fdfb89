"""The linear-inner families in A_g's eigenbasis, and the quadratic family in A_f's too.

A problem whose A_g and A_f arrive dense (as a foreign container holds them)
is diagonalized once on construction; runs on it must agree with runs on the
generated eigenbasis problem to rounding, with x drawn and reported in the
given coordinates.  The B_g x memo behind grad_gy and y_star, and the B_g' z
memo behind jvp_gxy, must never serve a stale product.
"""

import numpy as np
import pytest

from amigo import cli, gen_nonconvex, gen_quadratic, make_stochastic
from amigo.problems import NoiseSpec, NonconvexOuterProblem, QuadraticProblem

DENSE_METHODS = ("amigo-gd", "amigo-cg", "aid-gd", "aid-n", "itd")


def generated(family):
    if family == "quadratic":
        return gen_quadratic(40, 20, kappa_g=100.0, kappa_L=10.0, seed=3)
    return gen_nonconvex(40, 20, rho=1.0, seed=3, kappa_g=100.0)


def rotated(problem, seed=5):
    """The same problem as dense arrays: y rotated by a random orthogonal R, x as given.

    The quadratic family's A_f is the dense matrix its container holds, so
    the outer side arrives in the given basis instead of A_f's eigenbasis.
    """
    dy = problem.dims.dy
    r, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dy, dy)))
    *outer, c_f, _, b_g = problem._arrays()
    a_g = (r * problem.lam) @ r.T
    inner = (r @ c_f, (a_g + a_g.T) / 2, r @ b_g)
    if problem.family == "quadratic":
        return QuadraticProblem(*outer, *inner, seed=problem.seed)
    return NonconvexOuterProblem(problem.rho, *inner, seed=problem.seed)


def row_error(row):
    """rel_error where the family has a gap reference, else the squared gradient norm."""
    return row.grad_norm_sq if row.rel_error is None else row.rel_error


@pytest.mark.parametrize("method", DENSE_METHODS)
@pytest.mark.parametrize("family", ["quadratic", "nonconvex"])
def test_dense_basis_runs_agree(family, method):
    base = generated(family)
    dense = rotated(base)
    assert np.count_nonzero(dense._arrays()[-2]) > base.dims.dy  # A_g was given dense
    assert np.allclose(dense.lam, base.lam, rtol=1e-12, atol=0)
    if family == "quadratic":
        assert np.count_nonzero(dense._arrays()[0]) > base.dims.dx  # and so was A_f
        assert np.allclose(dense.lam_f, base.lam_f, rtol=1e-12, atol=0)
    noise = NoiseSpec()
    spec = {"K": 300, "T": 10, "N": 10}
    a, b = (cli.run_single(p, method, cli.build_config(p, method, spec, noise), 0, noise)
            for p in (base, dense))
    assert len(a.rows) == len(b.rows) == 301
    worst = max(abs(row_error(ra) - row_error(rb)) / abs(row_error(ra))
                for ra, rb in zip(a.rows, b.rows) if max(row_error(ra), row_error(rb)) > 1e-10)
    x_rel = np.linalg.norm(a.x_final - b.x_final) / np.linalg.norm(a.x_final)
    print(f"{family} {method}: worst row {worst:.2e}, x_final {x_rel:.2e}, "
          f"oracle totals {a.counter.total()} / {b.counter.total()}")
    assert worst <= 1e-8
    assert x_rel <= 1e-10
    if method != "amigo-cg":
        assert a.counter == b.counter  # CG may stop one iteration apart under rounding


class TestBxMemo:
    def setup_method(self):
        self.p = gen_quadratic(12, 8, kappa_g=50.0, kappa_L=5.0, seed=7)
        rng = np.random.default_rng(1)
        self.x1, self.x2 = rng.standard_normal(12), rng.standard_normal(12)
        self.y = rng.standard_normal(8)

    def exact(self, x):
        return self.p.lam * self.y + self.p.B_g @ x, -(self.p.B_g @ x) / self.p.lam

    def check(self, x):
        grad, ystar = self.exact(x)
        assert np.array_equal(self.p.grad_gy(x, self.y), grad)
        assert np.array_equal(self.p.y_star(x), ystar)

    def test_x_mutated_in_place(self):
        x = self.x1.copy()
        self.check(x)
        x[3] += 0.5
        self.check(x)
        x *= -2.0
        self.check(x)

    def test_alternating_x(self):
        for x in (self.x1, self.x2, self.x1, self.x2, self.x2, self.x1):
            self.check(x)

    def test_zero_noise_wrapper_is_bit_identical(self):
        wrapped = make_stochastic(self.p, NoiseSpec(), seed=4)
        fresh = gen_quadratic(12, 8, kappa_g=50.0, kappa_L=5.0, seed=7)
        x = self.x1.copy()
        for step in range(4):
            got = wrapped.grad_gy(x, self.y)
            assert np.array_equal(got, fresh.grad_gy(x, self.y))
            assert np.array_equal(wrapped.hvp_gyy(x, self.y, got), fresh.hvp_gyy(x, self.y, got))
            x = self.x2 if step % 2 == 0 else x + 1.0

    def test_repeated_x_reuses_the_product(self):
        self.p.grad_gy(self.x1, self.y)
        key, product = self.p._memo["bx"]
        assert key == self.x1.tobytes()
        self.p.grad_gy(self.x1.copy(), self.y)
        self.p.y_star(self.x1.copy())
        assert self.p._memo["bx"][1] is product
        assert not product.flags.writeable
        self.p.grad_gy(self.x2, self.y)
        assert self.p._memo["bx"][0] == self.x2.tobytes()


class TestJvpMemo:
    """jvp_gxy serves B_g' z from a one-slot memo on z's bytes, and never a stale product."""

    def setup_method(self):
        self.p = gen_quadratic(12, 8, kappa_g=50.0, kappa_L=5.0, seed=7)
        rng = np.random.default_rng(2)
        self.x, self.y = rng.standard_normal(12), rng.standard_normal(8)
        self.z1, self.z2 = rng.standard_normal(8), rng.standard_normal(8)

    def check(self, z):
        got = self.p.jvp_gxy(self.x, self.y, z)
        assert np.array_equal(got, self.p.B_g.T @ z)
        return got

    def test_repeated_z_returns_the_same_read_only_product(self):
        first = self.check(self.z1)
        again = self.check(self.z1.copy())
        assert again is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_z_mutated_in_place(self):
        z = self.z1.copy()
        first = self.check(z)
        z[2] += 0.25
        assert self.check(z) is not first
        z *= -3.0
        self.check(z)

    def test_alternating_z(self):
        for z in (self.z1, self.z2, self.z1, self.z2, self.z2, self.z1):
            self.check(z)

    def test_memos_are_independent(self):
        # B_g x and B_g' z each keep their own slot.
        self.p.y_star(self.x)
        self.check(self.z1)
        assert self.p._memo["bx"][0] == self.x.tobytes()
        assert self.p._memo["jvp"][0] == self.z1.tobytes()
