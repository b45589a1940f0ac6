"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls gamehodge: every quantity is rebuilt from the paper's
definitions on plain numpy arrays.  A game is given as its payoff array
``u`` of shape ``(M, n)`` (profiles in C order, last player fastest) plus the
strategy counts ``shape``.

* The potential ``phi`` solves the normal equations of "the game flow is a
  gradient": ``L phi = sum_m L_m u^m``, where ``L_m`` joins two profiles
  when they differ exactly in player m's coordinate and ``L`` is the sum.
  Up to ``DENSE_MAX_PROFILES`` the Laplacian is assembled densely from that
  definition and solved with ``lstsq``; above it, the same system is solved
  in the eigenbasis of the per-player cliques (a Kronecker sum).
* The parts are ``u_P^m = phi - mean_m phi``, ``u_N^m = mean_m u^m`` and
  ``u_H = u - u_P - u_N``, where ``mean_m`` averages over player m's own
  strategies.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

DENSE_MAX_PROFILES = 729


def own_mean(t: np.ndarray, m: int) -> np.ndarray:
    return t.mean(axis=m, keepdims=True)


def h_inner(shape, a: np.ndarray, b: np.ndarray) -> float:
    """Inner product on games weighting player m's payoffs by h_m."""
    return float(np.einsum("m,mi,mi->", np.asarray(shape, float), a, b))


def h_norm(shape, a: np.ndarray) -> float:
    return math.sqrt(max(h_inner(shape, a, a), 0.0))


def player_laplacians(shape) -> list[np.ndarray]:
    """Dense L_m per player: profiles joined when only coordinate m differs."""
    coords = np.array(list(np.ndindex(*shape)))
    differ = coords[:, None, :] != coords[None, :, :]
    one = differ.sum(axis=2) == 1
    out = []
    for m in range(len(shape)):
        adj = (one & differ[:, :, m]).astype(float)
        out.append(np.diag(adj.sum(axis=1)) - adj)
    return out


def _clique_basis(h: int) -> np.ndarray:
    """Orthonormal basis of R^h whose first column is constant."""
    q, _ = np.linalg.qr(np.column_stack([np.ones(h), np.eye(h)[:, : h - 1]]))
    return q


def _spectral_solve(shape, rhs: np.ndarray) -> np.ndarray:
    """Mean-zero solution of L phi = rhs in the eigenbasis of the cliques.

    The clique Laplacian h I - J has eigenvalue 0 on constants and h on
    their complement, so L has eigenvalue sum_{m: k_m != 0} h_m at basis
    multi-index k.
    """
    c = rhs.reshape(shape)
    bases = [_clique_basis(h) for h in shape]
    for m, q in enumerate(bases):
        c = np.moveaxis(np.tensordot(q.T, c, axes=([1], [m])), 0, m)
    lam = np.zeros(shape)
    for m, h in enumerate(shape):
        ax = np.full(h, float(h))
        ax[0] = 0.0
        lam = lam + ax.reshape([h if k == m else 1 for k in range(len(shape))])
    lam.flat[0] = np.inf
    c = c / lam
    for m, q in enumerate(bases):
        c = np.moveaxis(np.tensordot(q, c, axes=([1], [m])), 0, m)
    phi = c.ravel()
    return phi - phi.mean()


def potential(shape, u: np.ndarray) -> np.ndarray:
    """Mean-zero potential of the game flow (see the module docstring)."""
    shape = tuple(shape)
    n = math.prod(shape)
    if n <= DENSE_MAX_PROFILES:
        lap_m = player_laplacians(shape)
        rhs = sum(lm @ u[m] for m, lm in enumerate(lap_m))
        phi, *_ = np.linalg.lstsq(sum(lap_m), rhs, rcond=None)
        return phi - phi.mean()
    rhs = np.zeros(n)
    for m, h in enumerate(shape):
        t = u[m].reshape(shape)
        rhs += (h * (t - own_mean(t, m))).ravel()
    return _spectral_solve(shape, rhs)


def parts(shape, u: np.ndarray):
    """(phi, u_P, u_H, u_N) of a payoff array."""
    shape = tuple(shape)
    phi = potential(shape, u)
    pt = phi.reshape(shape)
    u_p = np.stack([(pt - own_mean(pt, m)).ravel() for m in range(len(shape))])
    u_n = np.stack(
        [np.broadcast_to(own_mean(u[m].reshape(shape), m), shape).ravel() for m in range(len(shape))]
    )
    return phi, u_p, u - u_p - u_n, u_n


def classify(shape, u: np.ndarray, rel: float = 1e-9) -> tuple[bool, bool]:
    """(is potential, is harmonic), each part measured against the game's own norm."""
    _, u_p, u_h, _ = parts(shape, u)
    norm = h_norm(shape, u)
    return h_norm(shape, u_h) <= rel * norm, h_norm(shape, u_p) <= rel * norm


# -- decomposition properties ---------------------------------------------------


def decomposition_faults(shape, u, phi, u_p, u_h, u_n, rel: float = 1e-9) -> list[str]:
    """Violations of the identities every decomposition must satisfy.

    Tolerances are relative to the game's own scale, with no absolute floor,
    so a game scaled by 1e-12 is held to the same standard as at scale 1.
    """
    shape = tuple(shape)
    scale = float(np.abs(u).max(initial=0.0))
    tol = rel * scale
    norm2 = h_inner(shape, u, u)
    faults = []

    def bound(name, value, limit):
        if not value <= limit:
            faults.append(f"{name}: {value:.3e} > {limit:.3e}")

    bound("reconstruction", float(np.abs(u - (u_p + u_h + u_n)).max(initial=0.0)), tol)
    for name, a, b in (("P.H", u_p, u_h), ("P.N", u_p, u_n), ("H.N", u_h, u_n)):
        bound(f"orthogonality {name}", abs(h_inner(shape, a, b)), rel * norm2)
    pt = np.asarray(phi).reshape(shape)
    hsum = np.zeros(shape)
    for m, h in enumerate(shape):
        p_m = u_p[m].reshape(shape)
        h_m = u_h[m].reshape(shape)
        n_m = u_n[m].reshape(shape)
        bound(
            f"potential differences player {m}",
            float(np.abs(np.diff(p_m, axis=m) - np.diff(pt, axis=m)).max(initial=0.0)),
            tol,
        )
        bound(f"nonstrategic constant player {m}", float(np.ptp(n_m, axis=m).max(initial=0.0)), tol)
        bound(f"potential part normalized player {m}", float(np.abs(own_mean(p_m, m)).max()), tol)
        bound(f"harmonic part normalized player {m}", float(np.abs(own_mean(h_m, m)).max()), tol)
        hsum += h * h_m
    bound("sum_m h_m u_H^m", float(np.abs(hsum).max(initial=0.0)), tol * max(shape))
    return faults


def compare_faults(name, got, want, tol) -> list[str]:
    err = float(np.abs(np.asarray(got, float) - np.asarray(want, float)).max(initial=0.0))
    return [] if err <= tol else [f"{name} differs from reference by {err:.3e} > {tol:.3e}"]


# -- equilibria by brute force ------------------------------------------------------


def epsilon_profiles(shape, u: np.ndarray, eps: float) -> list[tuple[int, ...]]:
    """Profiles where no player gains more than eps by any own deviation."""
    tensors = [u[m].reshape(shape) for m in range(len(shape))]
    found = []
    for p in itertools.product(*(range(h) for h in shape)):
        ok = True
        for m, t in enumerate(tensors):
            q = list(p)
            here = t[p]
            for a in range(shape[m]):
                q[m] = a
                if t[tuple(q)] - eps > here:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(p)
    return found


def pareto_profiles(shape, u: np.ndarray) -> list[tuple[int, ...]]:
    """Profiles that no other profile weakly dominates (all >=, some >)."""
    pay = u.T
    keep = []
    for i in range(pay.shape[0]):
        dominated = ((pay >= pay[i]).all(axis=1) & (pay > pay[i]).any(axis=1)).any()
        if not dominated:
            keep.append(np.unravel_index(i, shape))
    return [tuple(int(x) for x in p) for p in keep]


def uniform_is_nash(shape, u: np.ndarray, tol: float) -> bool:
    """Each player's pure strategies pay the same against uniform opponents."""
    for m in range(len(shape)):
        t = u[m].reshape(shape)
        others = tuple(k for k in range(len(shape)) if k != m)
        vs = t.mean(axis=others) if others else t
        if vs.max() - vs.mean() > tol:
            return False
    return True


def transfer_epsilon(shape, u_h: np.ndarray) -> float:
    """max_m 2 a / sqrt(h_m), a the distance to the closest potential game."""
    alpha = h_norm(shape, u_h)
    return max(2.0 * alpha / math.sqrt(h) for h in shape)


# -- dimension formulas -------------------------------------------------------------


def subspace_dims(shape) -> tuple[int, int, int]:
    """(dim P, dim H, dim N): n-1, (M-1)n - sum n/h_m + 1, sum n/h_m."""
    n = math.prod(shape)
    dim_n = sum(n // h for h in shape)
    return n - 1, (len(shape) - 1) * n - dim_n + 1, dim_n


def zs_ii_table(h: int) -> dict:
    """Zero-sum / identical-interest intersections for h x h games.

    Potential games meet the zero-sum games in u^1 = f(row) + g(col)
    (2h - 1) and contain every identical-interest game (h^2).  Harmonic
    games meet them in a doubly centred zero-sum core plus a constant
    (h^2 - 2h + 2) and in the constants alone (1).  Each class lies inside
    the zero-sum + identical-interest sum, which is the whole space.
    """
    return {
        "potential_games": {"zero_sum": 2 * h - 1, "identical": h * h, "direct_sum": h * h + 2 * h - 1},
        "harmonic_games": {"zero_sum": h * h - 2 * h + 2, "identical": 1, "direct_sum": h * h + 1},
        "all_games": {"zero_sum": h * h, "identical": h * h, "direct_sum": 2 * h * h},
    }
