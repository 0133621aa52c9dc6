"""Named invariant checks: the dual-route oracle suite behind ``optlab verify``.

Every check pits the production code against an independent path -- the
plain-loop references in :mod:`optlab._reference`, closed forms, or property
assertions -- and returns a named pass/fail result. The CLI prints one line
per check; the acceptance tests reuse the same functions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import _reference as ref
from . import optimizers as opts
from .blocks import CommonHyper, ParamBlock
from .linalg import frobenius_norm, matmul, qr_orthonormal, svd_singular_values, sym_eigenbasis
from .optimizers.engine import AdamW, Lion, Muon, Signum, Soap, make_optimizer
from .problems import build_problem, finite_difference_gradient
from .rng import _JUMP, _MIN_JUMP_DRAWS, _TWO_PI, Rng, indices_streams, normal_streams
from .schedules import EmaScheduleSpec, ScheduleSpec, ademamix_alpha_at, ademamix_beta3_at, lr_at

ORACLE_STEPS = 200
ORACLE_TOL = 1e-12

#: Singular-value band of the 5-iteration Newton-Schulz output on random
#: 64x64 matrices, measured once with the SVD oracle and frozen (see
#: demos/newton_schulz_spectrum.py for the measurement script). Measured
#: extremes over the 50 frozen seeds: [0.00832, 1.20231].
NS_BAND = (0.0075, 1.21)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    #: Wall time of the check, set by ``run_all_checks``.
    seconds: float | None = None


def _ok(name, detail=""):
    return CheckResult(name, True, detail)


def _fail(name, detail):
    return CheckResult(name, False, detail)


def _draws(key: str, steps: int, *shape: int) -> np.ndarray:
    """``steps`` arrays of ``shape`` from one stream: row t is the t-th ``shape``-sized draw."""
    return Rng(2024, key).normal(steps * math.prod(shape)).reshape(steps, *shape)


def _scalar_normal(r: Rng, n: int) -> np.ndarray:
    """What ``r.normal(n)`` draws from a fresh stream: Box-Muller in ``math``, one pair of raw draws at a time."""
    out = []
    while len(out) < n:
        u1 = ((r.next_u64() >> 11) + 1) * 2.0**-53
        theta = (r.next_u64() >> 11) * 2.0**-53 * _TWO_PI
        radius = math.sqrt(-2.0 * math.log(u1))
        out += (radius * math.cos(theta), radius * math.sin(theta))
    return np.array(out[:n], dtype=np.float64)


def _scales(steps: int) -> list[float]:
    """Schedule multipliers s_t in (0, 1]: a cosine from 1 down to 0.1."""
    return [0.55 + 0.45 * math.cos(math.pi * (t - 1) / steps) for t in range(1, steps + 1)]


def _stepped(engine, grads: dict[str, np.ndarray]):
    """Step ``engine`` along ``grads`` (block name -> one gradient per row); yield its blocks' values after each step."""
    for row in zip(*grads.values()):
        engine.step(dict(zip(grads, row)))
        yield [b.values for b in engine.blocks]


def _max_dev(name: str, devs: list[float]) -> CheckResult:
    worst = max(devs) if devs else 0.0
    if worst <= ORACLE_TOL:
        return _ok(name, f"max |dx| = {worst:.3e} over {ORACLE_STEPS} steps")
    return _fail(name, f"max |dx| = {worst:.3e} exceeds {ORACLE_TOL}")


# ---------------------------------------------------------------------------
# scalar-oracle equivalence, one check per update rule, through the engines


class _Group(NamedTuple):
    """One block of an oracle case and the plain-loop reference it must follow."""

    block: str
    role: str
    shape: tuple[int, ...]
    lr_key: str  # engine parameter holding this group's peak learning rate
    reference: Callable  # start point as a list -> reference object


_LAM = 0.1
_SOPHIA_BATCH = 8


def _vector(reference, lr_key="lr") -> _Group:
    return _Group("b", "vector", (7,), lr_key, reference)


def _matrix(reference, shape=(3, 4)) -> _Group:
    return _Group("w", "matrix", shape, "lr", reference)


def _adamw_1d(lam=_LAM, beta1=0.8, beta2=0.999):
    return lambda x0: ref.RefAdamW(lam=lam, beta1=beta1, beta2=beta2, eps=1e-8)


def _mars_case(variant: str):
    # the 1-D group has its own lr and weight decay
    params = {"lr": 5e-3, "lr_1d": 2.5e-3, "weight_decay": _LAM, "weight_decay_1d": 0.05}
    groups = [
        _matrix(lambda x0: ref.RefMarsMatrix(variant=variant, lam=_LAM)),
        _vector(_adamw_1d(lam=0.05), "lr_1d"),
    ]
    return params, groups


#: rule -> (engine parameters, groups). Hybrid rules step a matrix block and a
#: vector block together; the vector reference is AdamW at the rule's own 1-D
#: learning rate, weight decay and betas.
ORACLE_CASES: dict[str, tuple[dict, list[_Group]]] = {
    "adamw": ({"lr": 2e-3, "weight_decay": _LAM}, [_vector(_adamw_1d(beta1=0.9))]),
    "adopt": (
        {"lr": 2e-3, "weight_decay": _LAM},
        [_vector(lambda x0: ref.RefAdopt(lam=_LAM, beta1=0.9, beta2=0.999, eps=1e-6))],
    ),
    "ademamix": (
        {"lr": 2e-3, "weight_decay": _LAM},
        [
            _vector(
                lambda x0: ref.RefAdemamix(
                    lam=_LAM, beta1=0.9, beta2=0.999, beta3=0.9999, alpha=8.0,
                    beta_start=0.9, t_alpha=ORACLE_STEPS, t_beta3=ORACLE_STEPS, eps=1e-8,
                )
            )
        ],
    ),
    "lion": ({"lr": 1e-3, "weight_decay": _LAM}, [_vector(lambda x0: ref.RefLion(lam=_LAM, beta1=0.9, beta2=0.99))]),
    "signum": (
        {"lr": 1e-3, "weight_decay": _LAM},
        [_vector(lambda x0: ref.RefSignum(lam=_LAM, beta=0.95, nesterov=True))],
    ),
    "muon": (
        {"lr": 5e-3, "lr_1d": 2.5e-3, "weight_decay": _LAM},
        [_matrix(lambda x0: ref.RefMuonMatrix(beta=0.95)), _vector(_adamw_1d(), "lr_1d")],
    ),
    "dmuon": (
        {"lr": 5e-3, "weight_decay": _LAM},
        [_matrix(lambda x0: ref.RefDMuonMatrix(lam=_LAM, beta=0.95)), _vector(_adamw_1d())],
    ),
    # square block: the Gram matrices stay full-rank for the QR refreshes
    "soap": (
        {"lr": 2e-3, "weight_decay": _LAM, "precond_freq": 10},
        [
            _matrix(lambda x0: ref.RefSoapMatrix(lam=_LAM, precond_freq=10), shape=(3, 3)),
            _vector(_adamw_1d(beta1=0.9)),
        ],
    ),
    "sophia": (
        {"lr": 1e-3, "weight_decay": _LAM},
        [_vector(lambda x0: ref.RefSophia(lam=_LAM, beta1=0.9, beta2=0.999, rho=0.04, estimator_freq=10, eps=1e-15))],
    ),
    "sf-adamw": (
        {"lr": 1e-3, "weight_decay": _LAM, "sf_warmup": 20},
        [_vector(lambda x0: ref.RefScheduleFree(x0, lam=_LAM, beta1=0.9, beta2=0.9999, warmup=20, eps=1e-8))],
    ),
    "prodigy": (
        {"lr": 1.0, "weight_decay": _LAM},
        [_vector(lambda x0: ref.RefProdigy(x0, lam=_LAM, beta1=0.9, beta2=0.999, bias_correction=True))],
    ),
    "mars-adamw": _mars_case("adamw"),
    "mars-lion": _mars_case("lion"),
    "mars-shampoo": _mars_case("shampoo"),
}


def _ref_step(r, x, g, gamma, hess):
    """Advance one reference; the schedule-free and Prodigy ones keep x themselves."""
    if isinstance(r, (ref.RefScheduleFree, ref.RefProdigy)):
        return r.step(g, gamma)
    if isinstance(r, ref.RefSophia):
        return r.step(x, g, gamma, hess, _SOPHIA_BATCH)
    return r.step(x, g, gamma)


def _run_oracle(rule: str) -> CheckResult:
    """Step ``rule``'s engine and its references side by side for ORACLE_STEPS steps.

    The engine steps with schedule scale s_t; each reference steps with its
    group's peak learning rate times s_t, so the engine's routing and scale
    plumbing are checked along with the rule.
    """
    name = f"scalar-oracle/{rule}"
    params, groups = ORACLE_CASES[rule]
    blocks = [ParamBlock(g.block, _draws(f"oracle/{rule}/{g.block}/x0", 1, *g.shape)[0], g.role) for g in groups]
    engine = make_optimizer(rule, blocks, ORACLE_STEPS, params)
    refs = [g.reference(b.values.tolist()) for g, b in zip(groups, blocks)]
    xs = [b.values.tolist() for b in blocks]
    grads = {g.block: _draws(f"oracle/{rule}/{g.block}", ORACLE_STEPS, *g.shape) for g in groups}
    hess = None
    if engine.needs_gnb:
        hess = {g.block: _draws(f"oracle/{rule}/{g.block}/hess", ORACLE_STEPS, *g.shape) for g in groups}
    devs = []
    for t, s_t in enumerate(_scales(ORACLE_STEPS)):
        step_grads = {b.name: grads[b.name][t] for b in blocks}
        resampled = {b.name: hess[b.name][t] for b in blocks} if engine.wants_estimate() else None
        info = engine.step(step_grads, s_t, resampled, _SOPHIA_BATCH)
        for i, (g, b, r) in enumerate(zip(groups, blocks, refs)):
            gamma = params[g.lr_key] * s_t
            h = hess[b.name][t].tolist() if hess else None
            xs[i] = _ref_step(r, xs[i], step_grads[b.name].tolist(), gamma, h)
            devs.append(float(np.max(np.abs(b.values - np.array(xs[i])))))
        if info.d is not None and abs(info.d - refs[0].d) > ORACLE_TOL:
            return _fail(name, f"d mismatch: {info.d} vs {refs[0].d}")
    return _max_dev(name, devs)


def _oracle_check(rule: str) -> Callable[[], CheckResult]:
    """The named check that runs ``rule``'s oracle case."""

    def check() -> CheckResult:
        return _run_oracle(rule)

    # sf-adamw's check has always been check_oracle_sfadamw
    check.__name__ = check.__qualname__ = "check_oracle_" + rule.replace("sf-", "sf").replace("-", "_")
    return check


ORACLE_CHECKS = [_oracle_check(rule) for rule in ORACLE_CASES]


# ---------------------------------------------------------------------------
# kernel and schedule invariants


def check_matmul_vs_loops() -> CheckResult:
    r = Rng(11, "matmul")
    a = r.normal_matrix(5, 3)
    b = r.normal_matrix(3, 4)
    prod = matmul(a, b)
    loops = np.array(ref.mat_mul([list(row) for row in a.tolist()], [list(row) for row in b.tolist()]))
    worst = float(np.max(np.abs(prod - loops)))
    rel = worst / max(float(np.max(np.abs(loops))), 1e-300)
    if rel <= 1e-15:
        return _ok("linalg/matmul", f"max rel dev vs triple loop = {rel:.2e}")
    return _fail("linalg/matmul", f"max rel dev vs triple loop = {rel:.2e}")


def check_qr_properties() -> CheckResult:
    if not np.array_equal(qr_orthonormal(np.eye(3)), np.eye(3)):
        return _fail("linalg/qr", "identity not preserved")
    if not np.allclose(qr_orthonormal(np.diag([2.0, 3.0])), np.eye(2), atol=1e-15):
        return _fail("linalg/qr", "positive diagonal scaling should give I")
    a = Rng(12, "qr").normal_matrix(4, 4)
    q = qr_orthonormal(a)
    orth = frobenius_norm(q.T @ q - np.eye(4))
    r_mat = q.T @ a
    recon = frobenius_norm(q @ r_mat - a)
    if orth > 1e-12:
        return _fail("linalg/qr", f"||Q^T Q - I|| = {orth:.2e}")
    if recon > 1e-10:
        return _fail("linalg/qr", f"reconstruction error {recon:.2e}")
    return _ok("linalg/qr", f"orthonormality {orth:.2e}, reconstruction {recon:.2e}")


def check_eigen_properties() -> CheckResult:
    if not np.array_equal(sym_eigenbasis(np.eye(2)), np.eye(2)):
        return _fail("linalg/eigen", "identity basis not I under tie-breaking")
    v = sym_eigenbasis(np.diag([1.0, 9.0]))
    if not np.allclose(v, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15):
        return _fail("linalg/eigen", "descending order violated for diag(1, 9)")
    a = Rng(13, "eig").normal_matrix(5, 5)
    a = (a + a.T) / 2.0
    basis = sym_eigenbasis(a)
    vals = np.einsum("ij,ij->j", basis, a @ basis)
    resid = frobenius_norm(a @ basis - basis * vals)
    recon = frobenius_norm(a - (basis * vals) @ basis.T) / max(frobenius_norm(a), 1e-300)
    if resid > 1e-9 or recon > 1e-9:
        return _fail("linalg/eigen", f"residual {resid:.2e}, reconstruction {recon:.2e}")
    return _ok("linalg/eigen", f"residual {resid:.2e}, reconstruction {recon:.2e}")


def check_svd_values() -> CheckResult:
    if not np.allclose(svd_singular_values(np.eye(3)), np.ones(3), atol=1e-12):
        return _fail("linalg/svd", "identity should give unit singular values")
    if not np.allclose(svd_singular_values(np.diag([2.0, 0.5])), [2.0, 0.5], atol=1e-12):
        return _fail("linalg/svd", "diag(2, 0.5) mismatch")
    a = Rng(14, "svd").normal_matrix(3, 3)
    mine = svd_singular_values(a)
    lapack = np.linalg.svd(a, compute_uv=False)
    worst = float(np.max(np.abs(mine - lapack)))
    if worst > 1e-9:
        return _fail("linalg/svd", f"deviation vs LAPACK svd = {worst:.2e}")
    return _ok("linalg/svd", f"deviation vs LAPACK svd = {worst:.2e}")


def check_rng_streams() -> CheckResult:
    a = Rng(42, "stream")
    b = Rng(42, "stream")
    if [a.next_u64() for _ in range(64)] != [b.next_u64() for _ in range(64)]:
        return _fail("rng/streams", "same (seed, key) produced different integers")
    if np.array_equal(Rng(42, "s1").normal(16), Rng(42, "s2").normal(16)):
        return _fail("rng/streams", "distinct keys produced identical draws")
    keys = [f"stream/{t}" for t in range(9)]
    if not all(np.array_equal(row, Rng(42, key).normal(7)) for key, row in zip(keys, normal_streams(42, keys, 7))):
        return _fail("rng/streams", "normal_streams rows differ from the scalar streams")
    for bound in (1000, 3 * 2**61):  # the second rejects a quarter of the raw draws
        for size in (6, 50):  # 9 x 50 draws take the lanes, 9 x 6 the scalar rows
            rows = indices_streams(42, keys, bound, size)
            if not all(np.array_equal(row, Rng(42, key).indices(bound, size)) for key, row in zip(keys, rows)):
                return _fail("rng/streams", f"indices_streams rows of {size} differ from the scalar (bound {bound})")
    n = _MIN_JUMP_DRAWS + 1001  # odd, and long enough that Rng.normal draws it in jump-ahead lanes
    lanes, scalar = Rng(42, "long"), Rng(42, "long")
    if lanes.normal(n).tobytes() != _scalar_normal(scalar, n).tobytes():
        return _fail("rng/streams", f"Rng.normal({n}) differs from the scalar stream")
    if lanes.next_u64() != scalar.next_u64():
        return _fail("rng/streams", f"Rng.normal({n}) left the stream off its scalar position")
    n = 11 * _JUMP + 3  # odd; each key's stream runs as 12 lanes, the last one short
    rows = normal_streams(42, keys, n)
    if not all(row.tobytes() == _scalar_normal(Rng(42, key), n).tobytes() for key, row in zip(keys, rows)):
        return _fail("rng/streams", f"normal_streams rows of {n} differ from the scalar streams")
    draws = Rng(7, "moments").normal(100_000)
    mean = float(np.mean(draws))
    var = float(np.var(draws))
    if not (-0.02 <= mean <= 0.02 and 0.97 <= var <= 1.03):
        return _fail("rng/streams", f"mean {mean:.4f}, var {var:.4f} outside bounds")
    return _ok("rng/streams", f"mean {mean:.4f}, var {var:.4f}")


def check_schedule_endpoints() -> CheckResult:
    t_total, warm = 1000, 100
    cos = ScheduleSpec("cosine", 1.0, t_total, warm)
    if abs(lr_at(cos, warm) - 1.0) > 1e-12:
        return _fail("schedules/endpoints", "cosine lr(T_warmup) != gamma_max")
    if abs(lr_at(cos, t_total) - 0.01) > 1e-12:
        return _fail("schedules/endpoints", f"cosine lr(T) = {lr_at(cos, t_total)} != 0.01 * gamma_max")
    mid = warm + (t_total - warm) // 2
    if abs(lr_at(cos, mid) - (1.0 + 0.01) / 2.0) > 1e-12:
        return _fail("schedules/endpoints", "cosine midpoint != (gamma_max + gamma_end) / 2")
    wsd = ScheduleSpec("wsd", 1.0, t_total, warm)
    cooldown_start = int(0.8 * t_total)
    for t in range(warm, cooldown_start + 1, 50):
        if lr_at(wsd, max(t, warm + 1)) != 1.0:
            return _fail("schedules/endpoints", f"wsd not constant at t={t}")
    if abs(lr_at(wsd, t_total) - 0.01) > 1e-12:
        return _fail("schedules/endpoints", "wsd endpoint != gamma_end")
    ema = EmaScheduleSpec(alpha=8.0, beta3=0.9999, beta_start=0.9, t_alpha=128000, t_beta3=10000)
    if ademamix_beta3_at(ema, 10000) != 0.9999:
        return _fail("schedules/endpoints", "beta3 scheduler misses beta3 at t = t_beta3")
    big = EmaScheduleSpec(alpha=8.0, beta3=0.9999, beta_start=0.9, t_alpha=128000, t_beta3=10**9)
    if abs(ademamix_beta3_at(big, 1) - 0.9) > 1e-6:
        return _fail("schedules/endpoints", "beta3 scheduler misses beta_start near t = 0")
    if ademamix_alpha_at(ema, 16000) != 1.0:
        return _fail("schedules/endpoints", "alpha ramp: alpha=8, t_alpha=128000, t=16000 should give 1.0")
    if ademamix_alpha_at(ema, 128000) != 8.0 or ademamix_alpha_at(ema, 10**7) != 8.0:
        return _fail("schedules/endpoints", "alpha ramp does not saturate at alpha")
    return _ok("schedules/endpoints")


def check_newton_schulz_band() -> CheckResult:
    lo, hi = NS_BAND
    worst_lo, worst_hi = np.inf, -np.inf
    # row i is what Rng(7, f"ns-band/{i}").normal_matrix(64, 64) draws, flattened
    for g in normal_streams(7, [f"ns-band/{i}" for i in range(50)], 64 * 64):
        out = opts.newton_schulz_orthogonalize(g.reshape(64, 64), 5)
        sv = svd_singular_values(out)
        worst_lo = min(worst_lo, float(sv.min()))
        worst_hi = max(worst_hi, float(sv.max()))
    if worst_lo < lo or worst_hi > hi:
        return _fail("newton-schulz/band", f"singular values in [{worst_lo:.4f}, {worst_hi:.4f}] leave [{lo}, {hi}]")
    return _ok("newton-schulz/band", f"singular values within [{worst_lo:.4f}, {worst_hi:.4f}]")


def check_newton_schulz_identity() -> CheckResult:
    a, b, c = opts.NS_COEFFS
    expected = (a + b / 2.0 + c / 4.0) / math.sqrt(2.0)
    out = opts.newton_schulz_orthogonalize(np.eye(2), iters=1)
    worst = float(np.max(np.abs(out - expected * np.eye(2))))
    if worst > 1e-12:
        return _fail("newton-schulz/identity", f"one-step identity deviates by {worst:.2e}")
    return _ok("newton-schulz/identity", f"one step on I2 = {expected:.6f} * I2")


def check_soap_identity_reduction() -> CheckResult:
    rows, cols, steps = 3, 4, 100
    grads = {"w": _draws("soap-id", steps, rows, cols)}
    x0 = Rng(5, "soap-id/x0").normal_matrix(rows, cols)
    common = {"lr": 1e-3, "weight_decay": 0.1, "beta1": 0.9, "beta2": 0.999}
    soap_engine = Soap([ParamBlock("w", x0.copy(), role="matrix")], **common, precond_freq=None, identity_init=True)
    adam_engine = AdamW([ParamBlock("w", x0.copy(), role="matrix")], **common)
    trajectories = zip(_stepped(soap_engine, grads), _stepped(adam_engine, grads))
    worst = max(float(np.max(np.abs(s - a))) for (s,), (a,) in trajectories)
    if worst > 1e-12:
        return _fail("soap/identity-reduction", f"max |dx| = {worst:.3e} over {steps} steps")
    return _ok("soap/identity-reduction", f"max |dx| = {worst:.3e} over {steps} steps")


def check_sign_scale_invariance() -> CheckResult:
    steps, n = 150, 7
    base = _draws("sign-scale", steps, n)
    x0 = Rng(6, "sign-scale/x0").normal(n)
    for scale in (0.1, 7.3):
        for engine_cls, kwargs in ((Signum, {"momentum": 0.95}), (Lion, {"beta1": 0.9, "beta2": 0.99})):
            ref_engine, scaled_engine = (engine_cls([ParamBlock("x", x0.copy())], lr=1e-3, weight_decay=0.0, **kwargs)
                                         for _ in range(2))
            *_, (x_ref,) = _stepped(ref_engine, {"x": base})
            *_, (x_scaled,) = _stepped(scaled_engine, {"x": scale * base})
            if not np.array_equal(x_ref, x_scaled):
                return _fail(
                    "sign/scale-invariance",
                    f"{engine_cls.name} trajectory changed under gradient scaling by {scale}",
                )
    return _ok("sign/scale-invariance", "signum and lion bit-identical under scaling by 0.1 and 7.3")


def check_prodigy_adaptation() -> CheckResult:
    n = 7
    x0 = Rng(8, "prodigy/x0").normal(n)
    blocks = [ParamBlock("x", x0.copy())]
    state = opts.ProdigyState.for_blocks(blocks)
    g1 = Rng(8, "prodigy/g").normal(n)
    _, eff = opts.prodigy_step(blocks, {"x": g1}, state, CommonHyper(1.0, 0.0), 0.9, 0.999)
    if state.d != 1e-6:
        return _fail("prodigy/adaptation", f"d after step 1 = {state.d}, expected 1e-6")
    if eff <= 0.0:
        return _fail("prodigy/adaptation", "effective lr not populated")
    last_d = state.d
    r = Rng(8, "prodigy/stream")
    for _ in range(300):
        g = r.normal(n)
        opts.prodigy_step(blocks, {"x": g}, state, CommonHyper(1.0, 0.0), 0.9, 0.999)
        if state.d < last_d:
            return _fail("prodigy/adaptation", "d decreased")
        last_d = state.d
    if state.d <= 1e-6:
        return _fail("prodigy/adaptation", "d never grew over 300 steps")
    return _ok("prodigy/adaptation", f"d grew monotonically to {state.d:.3e}")


def check_sf_convex_combination() -> CheckResult:
    n, steps = 5, 5
    x0 = Rng(9, "sf/x0").normal(n)
    blocks = [ParamBlock("x", x0.copy())]
    state = opts.ScheduleFreeState.for_blocks(blocks, warmup_steps=3)
    zs = []
    cs = []
    grads = _draws("sf/grads", steps, n)
    for t, g in enumerate(grads, start=1):
        before = state.lr_sq_sum
        opts.sfadamw_step(blocks, {"x": g}, state, CommonHyper(1e-2, 0.0), 0.9, 0.9999)
        gamma_sq = state.lr_sq_sum - before
        cs.append(gamma_sq / state.lr_sq_sum)
        zs.append(state.z["x"].copy())
    # expand x_T symbolically: w_t = c_t * prod_{u>t} (1 - c_u)
    weights = []
    for t in range(steps):
        w = cs[t]
        for u in range(t + 1, steps):
            w *= 1.0 - cs[u]
        weights.append(w)
    if any(w < -1e-15 for w in weights) or abs(sum(weights) - 1.0) > 1e-12:
        return _fail("sf-adamw/convex-weights", f"weights {weights} are not a convex combination")
    recon = sum(w * z for w, z in zip(weights, zs))
    worst = float(np.max(np.abs(recon - blocks[0].values)))
    if worst > 1e-12:
        return _fail("sf-adamw/convex-weights", f"x differs from weighted z history by {worst:.2e}")
    return _ok("sf-adamw/convex-weights", f"weights sum to 1, reconstruction within {worst:.2e}")


def check_finite_differences() -> CheckResult:
    worst_overall = 0.0
    specs = [
        ("quadratic", {"dim": 20, "condition": 100.0}, 1e-5, 1e-7),
        ("quadratic-noisy", {"dim": 10, "condition": 10.0, "noise": 0.5, "batch_size": 4}, 1e-5, 1e-6),
        ("rosenbrock", {"dim": 6}, 1e-6, 1e-6),
        ("mlp", {"in_dim": 5, "hidden": 7, "classes": 3, "samples": 64, "batch_size": 16}, 1e-5, 1e-6),
    ]
    for label, params, h, tol in specs:
        kind = "quadratic" if label.startswith("quadratic") else label
        problem = build_problem(kind, seed=31, **params)
        for point_idx in range(3):
            blocks = problem.init_blocks(point_idx)
            params_map = {
                b.name: b.values + 0.1 * Rng(31, f"fd/{label}/{point_idx}/{b.name}").normal(b.size).reshape(b.shape)
                for b in blocks
            }
            batch_seed = (31, point_idx + 1)
            _, analytic = problem.loss_and_grad(params_map, batch_seed)
            numeric = finite_difference_gradient(problem, params_map, batch_seed, h)
            for name in analytic:
                scale = max(float(np.max(np.abs(analytic[name]))), 1e-8)
                dev = float(np.max(np.abs(analytic[name] - numeric[name]))) / scale
                worst_overall = max(worst_overall, dev)
                if dev > tol:
                    return _fail(
                        "problems/finite-differences",
                        f"{label}: block {name} rel err {dev:.2e} > {tol} at point {point_idx}",
                    )
    return _ok("problems/finite-differences", f"worst relative error {worst_overall:.2e}")


def check_zero_grad_fixed_points() -> CheckResult:
    n = 6
    x0 = Rng(10, "zero/x0").normal(n)
    zero = np.zeros(n)
    block = ParamBlock("x", x0.copy())
    state = opts.AdamLikeState.zeros(n)
    for _ in range(10):
        opts.adamw_step(block, zero, state, CommonHyper(1e-3, 0.0))
    if not np.array_equal(block.values, x0):
        return _fail("optimizers/zero-grad", "adamw moved under zero gradients")
    block = ParamBlock("x", x0.copy())
    astate = opts.AdoptState.zeros(n)
    opts.adopt_init(astate, zero)
    for _ in range(10):
        opts.adopt_step(block, zero, astate, CommonHyper(1e-3, 0.0, 1e-6))
    if not np.array_equal(block.values, x0):
        return _fail("optimizers/zero-grad", "adopt moved under zero gradients")
    block = ParamBlock("x", x0.copy())
    mstate = opts.AdemamixState.zeros(n)
    ema = EmaScheduleSpec(alpha=8.0, beta3=0.9999, beta_start=0.9, t_alpha=100, t_beta3=100)
    for _ in range(10):
        opts.ademamix_step(block, zero, mstate, CommonHyper(1e-3, 0.0), ema)
    if not np.array_equal(block.values, x0):
        return _fail("optimizers/zero-grad", "ademamix moved under zero gradients")
    if np.any(mstate.m_slow != 0.0):
        return _fail("optimizers/zero-grad", "ademamix slow EMA left zero under zero gradients")
    return _ok("optimizers/zero-grad", "adamw/adopt/ademamix parameters exactly fixed")


def check_muon_wd_independence() -> CheckResult:
    steps = 40
    grads = {"w": _draws("muon-wd/m", steps, 4, 3), "b": _draws("muon-wd/v", steps, 5)}
    finals = []
    for lam in (0.0, 0.7):
        w = ParamBlock("w", Rng(15, "muon-wd/w0").normal_matrix(4, 3), role="matrix")
        b = ParamBlock("b", Rng(15, "muon-wd/b0").normal(5), role="vector")
        *_, final = _stepped(Muon([w, b], lr=0.01, lr_1d=1e-3, weight_decay=lam), grads)
        finals.append(final)
    (w_zero, b_zero), (w_decayed, b_decayed) = finals
    if not np.array_equal(w_zero, w_decayed):
        return _fail("muon/wd-independence", "matrix parameters changed with lam")
    if np.array_equal(b_zero, b_decayed):
        return _fail("muon/wd-independence", "1-D parameters ignored lam (decay not applied)")
    return _ok("muon/wd-independence", "matrix path independent of lam; adamw path decays")


def check_run_determinism() -> CheckResult:
    from .harness import run

    cfg = {
        "problem.kind": "mlp",
        "problem.in_dim": 4,
        "problem.hidden": 6,
        "problem.classes": 3,
        "problem.samples": 64,
        "problem.batch_size": 8,
        "optimizer.name": "adamw",
        "optimizer.lr": 1e-3,
        "run.steps": 30,
        "run.seed": 3,
        "run.clip": 0.5,
    }
    rec1, rec2 = run(cfg), run(cfg)
    rows1 = [(r.step, r.loss, r.grad_norm, r.update_norm, r.param_norm, r.lr, r.effective_lr, r.d) for r in rec1.rows]
    rows2 = [(r.step, r.loss, r.grad_norm, r.update_norm, r.param_norm, r.lr, r.effective_lr, r.d) for r in rec2.rows]
    if rows1 != rows2 or rec1.final_loss != rec2.final_loss:
        return _fail("harness/determinism", "two runs of the same config differ beyond wall time")
    return _ok("harness/determinism", "trajectories byte-identical apart from wall time")


def check_clip_examples() -> CheckResult:
    from .harness import clip_gradients

    grads, norm = clip_gradients({"a": np.array([0.18, 0.24])}, 0.5)
    if abs(norm - 0.3) > 1e-15 or not np.array_equal(grads["a"], np.array([0.18, 0.24])):
        return _fail("harness/clip", "norm below threshold must pass through unchanged")
    grads, norm = clip_gradients({"a": np.array([3.0, 4.0])}, 0.5)
    if abs(norm - 5.0) > 1e-15:
        return _fail("harness/clip", f"pre-clip norm {norm} != 5")
    clipped = grads["a"]
    if abs(float(np.sqrt(np.sum(clipped**2))) - 0.5) > 1e-12:
        return _fail("harness/clip", "clipped norm != threshold")
    cos = float(clipped @ np.array([3.0, 4.0]) / (np.linalg.norm(clipped) * 5.0))
    if abs(cos - 1.0) > 1e-12:
        return _fail("harness/clip", f"direction not preserved, cos = {cos}")
    return _ok("harness/clip", "3-4-5 clipping exact, direction preserved")


ALL_CHECKS = ORACLE_CHECKS + [
    check_matmul_vs_loops,
    check_qr_properties,
    check_eigen_properties,
    check_svd_values,
    check_rng_streams,
    check_schedule_endpoints,
    check_newton_schulz_identity,
    check_newton_schulz_band,
    check_soap_identity_reduction,
    check_sign_scale_invariance,
    check_prodigy_adaptation,
    check_sf_convex_combination,
    check_finite_differences,
    check_zero_grad_fixed_points,
    check_muon_wd_independence,
    check_clip_examples,
    check_run_determinism,
]


def run_all_checks() -> list[CheckResult]:
    """Every check in ``ALL_CHECKS`` order, each result with its wall time in ``seconds``."""
    results = []
    for check in ALL_CHECKS:
        start = time.perf_counter()
        result = check()
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
