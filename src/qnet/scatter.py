"""Exact multiport scattering from the poles of the state matrix.

This is the ground-truth engine every closed form is checked against.
Per frequency the state amplitudes obey ``A(omega) c = K^T v_in`` with
``A(omega) = M - i omega`` and the frequency-independent state matrix

    M = (K^T K) / 2 + i g + i diag(omega_i),

where the port-coupling matrix K stacks rows (sqrt(gamma_i)),
(sqrt(Gamma_i)), then one row per side channel.  The scattering matrix
follows as ``S = I - K A^{-1} K^T`` up to the fixed sign convention that
makes the input->output amplitude positive on resonance (conjugation by
diag(1, -1, 1, ...)); ports are ordered (a, b, m_1, m_2, ...).

Engine.  M is diagonalized once per network, ``M = V diag(lambda) V^{-1}``,
and the basis is cached on the (frozen) `NetworkSpec`.  Every frequency
then costs O(N P^2) instead of an O(N^3) solve:

    S(omega) = I - (K V) diag(d) (V^{-1} K^T),   d_k = 1 / (lambda_k - i omega)

(the temporal coupled-mode pole form; Fan, Suh & Joannopoulos, JOSA A 20,
569 (2003)).

Guard.  The pole sum is accurate in absolute terms, but where S_pq is
itself tiny -- the far tails of long chains, where |T| falls below 1e-100
while the terms stay of order 1/|omega| -- it cancels and loses relative
accuracy.  It also loses digits next to a pole much narrower than |M|,
since each eigenvalue carries an absolute error of about eps |M|, where
the pivoted dense solve does not.  Per frequency and entry, with B = K V
and C = V^{-1} K^T,

    bound_pq = eps cond(V) (N sum_k |B_pk d_k C_kq| + |M| |B_p d| |d C_q|)

estimates the error: the first term is rounding in the sum, the second the
backward error of the eigendecomposition (a perturbation of M of size
eps |M|) carried through A^{-1}.  A frequency where any bound_pq exceeds
``_POLE_RTOL |S_pq|`` is recomputed by a pivoted LU solve of A(omega).

Fallback.  Which LU serves the flagged frequencies depends on the bandwidth
of M.  When M is tridiagonal -- every chain and comb: each port on one
state, nearest-neighbour couplings -- it is its own Hessenberg form, and
LU with partial pivoting in the row operations of LAPACK's zgttrf/zgtts2
costs O(N) per frequency (LAPACK Users' Guide, 3rd ed., 1999).  Any other
M goes to the dense batched O(N^3) solve.  Whole networks whose eigenbasis
is unusable also go to the dense solve: eps cond(V) above the tolerance
(exceptional points, where eigenvectors coalesce), or a pole with
Re lambda at round-off level (a dark state, at whose frequency A is
exactly singular and `SingularSystem` is raised).  The dense solve stacks
A(omega) in batches of at most ``_DENSE_CHUNK_BYTES`` (2 MB), a bound per
call and so per sweep thread, which keeps its working set cache-sized
whatever the number of flagged frequencies.  LAPACK factors each stacked
frequency by its own call, so the batch size changes no bit of S.

Each frequency's S from the pole sum or the tridiagonal solve is computed
by elementwise operations and `np.einsum` contractions of operands of one
dtype with the default ``optimize=False``: these never call BLAS and sum
each output entry in one pass over the contracted index.  BLAS (``@``,
`matmul`, `dot`) stays off this path because its kernels pick their
blocking by the operands' shape, so the rounding of a row can change with
the batch it sits in.  Results therefore do not depend on how a sweep is
chunked or threaded, and `smatrix` equals the matching row of `sweep` bit
for bit.

All spectra use the e^{-i omega t} time convention.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularSystem, ValidationError
from .netcore import NetworkSpec, SweepGrid

# bytes of stacked A(omega) per dense-solve batch and so per sweep thread:
# three 200-state matrices; a larger stack adds memory, not speed (see
# "Fallback")
_DENSE_CHUNK_BYTES = 1 << 21
# frequencies per pole-sum batch: F P^2 N complex pole terms of ~4 MB, summed
# by contraction; the largest array a batch holds is the (F, N) of 1 / z_k
_POLE_CHUNK_BYTES = 1 << 22
_POLE_RTOL = 5e-11  # error allowed per pole-sum entry, relative to |S_pq|
_EPS = np.finfo(float).eps


def port_coupling_matrix(net: NetworkSpec) -> np.ndarray:
    """K with shape (P, N): rows sqrt(gamma), sqrt(Gamma), sqrt(mu_s)."""
    rows = [np.sqrt(net.input_decays), np.sqrt(net.output_decays)]
    rows.extend(np.sqrt(mu) for mu in net.side_decays)
    return np.array(rows)


def state_matrix(net: NetworkSpec) -> np.ndarray:
    """Frequency-independent M = K^T K / 2 + i g + i diag(omega_i); its
    eigenvalues are the network's poles."""
    K = port_coupling_matrix(net)
    return 0.5 * (K.T @ K) + 1j * (net.coupling + np.diag(net.resonances))


def _dark_floor(M: np.ndarray, norm: float | None = None) -> float:
    """N eps |M|_2 (``norm`` if given) for an N x N state matrix M: a pole
    with Re lambda at or below it is a dark state that no port reaches."""
    return len(M) * _EPS * (np.linalg.norm(M, 2) if norm is None else norm)


def _signed_ports(net: NetworkSpec) -> np.ndarray:
    """D K with D = diag(1, -1, 1, ...), so that S = I - (D K) A^{-1} (D K)^T
    has a positive transmission amplitude on resonance."""
    K = port_coupling_matrix(net)
    K[1] *= -1.0
    return K


def _dense_smatrices(net: NetworkSpec, freqs: np.ndarray) -> np.ndarray:
    """S(omega) by one dense solve per frequency; shape (F, P, P).  Serves
    networks without a usable pole basis, and is the tests' reference.
    Raises SingularSystem at the first frequency where A(omega) is singular."""
    return _solve(state_matrix(net), _signed_ports(net), freqs)


def _solve(M: np.ndarray, K: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Batched S = I - K (M - i omega)^{-1} K^T, in batches of at most
    ``_DENSE_CHUNK_BYTES`` of stacked A(omega)."""
    n, p = M.shape[0], K.shape[0]
    idx = np.arange(n)
    out = np.empty((len(freqs), p, p), dtype=complex)
    chunk = max(1, _DENSE_CHUNK_BYTES // (16 * n * n))
    for lo in range(0, len(freqs), chunk):
        f = freqs[lo:lo + chunk]
        A = np.broadcast_to(M, (len(f), n, n)).copy()
        A[:, idx, idx] -= 1j * f[:, None]
        try:
            X = np.linalg.solve(A, np.broadcast_to(K.T, (len(f), n, p)))
        except np.linalg.LinAlgError:
            # find the offending frequency for the error message
            for i, w in enumerate(f):
                try:
                    np.linalg.solve(A[i], K.T)
                except np.linalg.LinAlgError:
                    raise SingularSystem(float(w)) from None
            raise
        S = np.eye(p) - K @ X
        bad = ~np.all(np.isfinite(S), axis=(1, 2))
        if np.any(bad):
            raise SingularSystem(float(f[int(np.argmax(bad))]))
        out[lo:lo + chunk] = S
    return out


def _cabs1(z):
    """|Re z| + |Im z|, the modulus LAPACK's pivot test uses."""
    return np.abs(z.real) + np.abs(z.imag)


def _tridiagonal_solve(bands, K: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Batched S = I - K (M - i omega)^{-1} K^T for tridiagonal M, given as
    ``bands = (lower, diag, upper)``; shape (F, P, P).

    LU with partial pivoting in the row operations of LAPACK's zgttrf and
    zgtts2, vectorized over frequency with elementwise numpy operations
    only, so each frequency's S is the same in any batch.  Every frequency
    is first eliminated without interchanges (O(N) per frequency); the few
    whose pivot test asks for one are redone by `_pivoted_solve`.  Raises
    SingularSystem at the first frequency whose S is not finite."""
    lower, diag, upper = bands
    n, p = len(diag), K.shape[0]
    # per state a C-contiguous (F, P) block, the diagonal repeated over the
    # P right-hand sides: the loops below run one numpy call per operation
    # and state, which costs least when no operand broadcasts or strides
    D = np.repeat(diag[:, None, None] - 1j * freqs[None, :, None], p, axis=2)
    L = np.repeat(lower[:, None, None], p, axis=2)
    U = np.repeat(upper[:, None, None], p, axis=2)
    R = np.ascontiguousarray(K.T, dtype=complex)[:, None, :]
    X = np.empty_like(D)  # the right-hand side, overwritten by the solution
    X[0] = R[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c, b = D[0], X[0]
        for lo, up, d, r, out in zip(L, U, D[1:], R[1:], X[1:]):
            fac = lo / c
            c = np.subtract(d, fac * up, out=d)  # D keeps the pivots of U
            b = np.subtract(r, fac * b, out=out)
        x = np.divide(b, c, out=b)
        for up, c, b in zip(U[::-1], D[-2::-1], X[-2::-1]):
            x = np.divide(np.subtract(b, up * x, out=b), c, out=b)
    # (F, P, N) in C order, so the sum over states below runs in the same
    # order for any batch
    X = X.transpose(1, 2, 0).copy()
    # up to a frequency's first interchange both eliminations make the same
    # pivots, so zgttrf's test on this pass's pivots finds that interchange
    swap = np.any(_cabs1(D[:-1, :, 0]) < _cabs1(lower)[:, None], axis=0)
    if np.any(swap):
        d = np.repeat(diag[None, :], np.count_nonzero(swap), axis=0) - 1j * freqs[swap, None]
        X[swap] = _pivoted_solve(lower, d, upper, R[:, 0])
    # K cast first: with one dtype, einsum sums each entry in one pass
    S = np.eye(p) - np.einsum("pn,fqn->fpq", K.astype(complex), X)
    bad = ~np.all(np.isfinite(S), axis=(1, 2))
    if np.any(bad):
        raise SingularSystem(float(freqs[int(np.argmax(bad))]))
    return S


def _pivoted_solve(lower, d, upper, R):
    """zgttrf with row interchanges, then zgtts2, on (F, N) diagonals ``d``
    and the (N, P) right-hand side ``R``; returns X with shape (F, P, N)."""
    f, n = d.shape
    zero = np.zeros(f, complex)
    c0, c1, bc = d[:, 0], np.full(f, upper[0]), np.broadcast_to(R[0], (f, len(R[0])))
    rows = []  # rows of U: (diagonal, first and second superdiagonal, rhs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n - 1):
            # row i (c0, c1 and rhs bc) against row i + 1 (a, b, e and rhs r)
            a, b, e, r = lower[i], d[:, i + 1], upper[i + 1] if i + 2 < n else 0j, R[i + 1]
            swap = _cabs1(c0) < _cabs1(a)
            s = swap[:, None]
            p0, p1 = np.where(swap, a, c0), np.where(swap, b, c1)
            p2, pb = np.where(swap, e, zero), np.where(s, r, bc)
            fac = np.where(swap, c0, a) / p0
            c0 = np.where(swap, c1, b) - fac * p1
            c1 = np.where(swap, zero, e) - fac * p2
            bc = np.where(s, bc, r) - fac[:, None] * pb
            rows.append((p0, p1, p2, pb))
        x1 = bc / c0[:, None]
        x2 = np.zeros_like(x1)
        xs = [x1]
        for p0, p1, p2, pb in reversed(rows):
            x1, x2 = (pb - p1[:, None] * x1 - p2[:, None] * x2) / p0[:, None], x1
            xs.append(x1)
    return np.stack(xs[::-1], axis=-1)


class _PoleBasis(NamedTuple):
    """Eigen-decomposition of M in the form the pole sum consumes.

    With B = D K V and C = V^{-1} K^T D (D the port sign convention),
    ``residues[p * P + q, k] = B_pk C_kq`` and ``block`` holds them in the
    real form the pole sum contracts; ``rounding``, ``weights`` and
    ``spread`` carry the two guard terms' frequency-independent factors.
    Flagged frequencies are solved from ``bands`` when M is tridiagonal,
    else from ``state``."""

    state: np.ndarray  # M, for the dense solve of flagged frequencies
    ports: np.ndarray  # D K
    poles: np.ndarray  # (N,) eigenvalues lambda_k of M
    residues: np.ndarray  # (P*P, N)
    block: np.ndarray  # (P*P, 2, 2N) rows (Re r, -Im r), (Im r, Re r) interleaved by k
    rounding: np.ndarray  # (P*P, N) eps N cond(V) |B_pk C_kq|
    weights: np.ndarray  # (2P, N) rows |B_pk|^2 (by p), then |C_kq|^2 (by q)
    spread: float  # eps cond(V) |M|_2
    cond: float  # cond_2(V)
    bands: tuple | None  # (lower, diag, upper) diagonals of M if tridiagonal


def _pole_basis(net: NetworkSpec) -> _PoleBasis | None:
    """Diagonalize M once; None when the basis cannot carry the pole sum
    (eps cond(V) above the tolerance, or a pole at round-off distance from
    the real axis) and the dense solve must serve the whole network."""
    M = state_matrix(net)
    try:
        lam, V = np.linalg.eig(M)
    except np.linalg.LinAlgError:
        return None
    cond = float(np.linalg.cond(V))
    norm = float(np.linalg.norm(M, 2))
    if not _EPS * cond <= _POLE_RTOL or not np.min(lam.real) > _dark_floor(M, norm):
        return None
    K = _signed_ports(net)
    B = K @ V
    C = np.linalg.solve(V, K.T).T
    p, n = B.shape
    residues = (B[:, None, :] * C[None, :, :]).reshape(p * p, n)
    return _PoleBasis(
        state=M,
        ports=K,
        poles=lam,
        residues=residues,
        block=np.stack([residues.conj(), 1j * residues.conj()], axis=1).view(float),
        rounding=_EPS * n * cond * np.abs(residues),
        weights=np.abs(np.concatenate([B, C])) ** 2,
        spread=_EPS * cond * norm,
        cond=cond,
        bands=_bands(M),
    )


def _bands(M: np.ndarray):
    """(lower, diag, upper) diagonals of M when it is tridiagonal, else None."""
    if np.any(np.triu(M, 2)) or np.any(np.tril(M, -2)):
        return None
    return np.diag(M, -1), np.diag(M), np.diag(M, 1)


def _pole_smatrices(basis: _PoleBasis, freqs: np.ndarray):
    """(S, ok): the pole sum on a 1-D frequency array, shape (F, P, P),
    and a mask of the frequencies whose every entry passes the guard."""
    f, p = len(freqs), len(basis.weights) // 2
    d = 1.0 / (basis.poles - 1j * freqs[:, None])
    # sum_k d_k r_jk in real arithmetic: d viewed as (F, 2N) rows
    # (Re d_k, Im d_k) against the block rows (Re r, -Im r) and (Im r, Re r)
    sums = np.einsum("fk,jck->fjc", d.view(float), basis.block).view(complex)
    S = np.eye(p).ravel() - sums[..., 0]
    a = np.abs(d)
    norms = np.sqrt(np.einsum("fk,jk->fj", a * a, basis.weights))  # |B_p d|, then |d C_q|
    spread = norms[:, :p, None] * norms[:, None, p:]
    bound = np.einsum("fk,jk->fj", a, basis.rounding) + basis.spread * spread.reshape(f, p * p)
    # written so that a NaN bound or entry fails the guard
    ok = np.all(bound <= _POLE_RTOL * np.abs(S), axis=1)
    return S.reshape(f, p, p), ok


def _smatrices(net: NetworkSpec, freqs: np.ndarray) -> np.ndarray:
    """Batched S(omega) for a 1-D frequency array; shape (F, P, P): the pole
    sum, with the frequencies the guard flags redone by the tridiagonal
    solve when M is tridiagonal and by the dense solve otherwise."""
    basis = net._poles
    if basis is None:
        return _dense_smatrices(net, freqs)
    S, ok = _pole_smatrices(basis, freqs)
    if not np.all(ok):
        if basis.bands is not None:
            S[~ok] = _tridiagonal_solve(basis.bands, basis.ports, freqs[~ok])
        else:
            S[~ok] = _solve(basis.state, basis.ports, freqs[~ok])
    return S


def smatrix(net: NetworkSpec, omega: float) -> np.ndarray:
    """S(omega) for a single frequency; raises SingularSystem if A(omega)
    is exactly singular (a state decoupled from every port at resonance)."""
    net._validated  # validated once per spec
    return _smatrices(net, np.atleast_1d(np.asarray(omega, float)))[0]


@dataclass(frozen=True)
class ScatteringResponse:
    """Per-frequency S-matrices on a sweep grid, fixed port order (a, b, m...),
    and the network they were swept from."""

    grid: SweepGrid
    smatrices: np.ndarray
    network: NetworkSpec

    def transmission(self) -> np.ndarray:
        """T(omega) = S[b <- a] over the grid."""
        return self.smatrices[:, 1, 0]

    def reflection(self) -> np.ndarray:
        """R(omega) = S[a <- a] over the grid."""
        return self.smatrices[:, 0, 0]

    def dark(self, m: int = 0) -> np.ndarray:
        """D_m(omega) = S[b <- m], coupling of side channel m into the output."""
        return self.smatrices[:, 1, 2 + m]

    def side_leakage(self, m: int = 0) -> np.ndarray:
        """S[m <- a]: amplitude lost from the input into side channel m."""
        return self.smatrices[:, 2 + m, 0]


def _env_threads() -> int:
    """Sweep threads from QNET_THREADS, 1 if unset or empty."""
    text = os.environ.get("QNET_THREADS") or "1"
    if not text.strip().isdigit() or int(text) < 1:
        raise ValidationError(f"QNET_THREADS must be a positive integer, got {text!r}")
    return int(text)


def sweep(net: NetworkSpec, grid: SweepGrid, threads: int | None = None) -> ScatteringResponse:
    """Evaluate S(omega) on every grid point.

    Frequencies are independent work items written to pre-assigned
    slots, so the result is identical for any thread count.  ``threads``
    defaults to the QNET_THREADS environment variable (1 if unset), which
    must be a positive integer (ValidationError otherwise).
    """
    net._validated  # validated once per spec
    net._poles  # factorize once, before any worker thread needs the basis
    freqs = grid.frequencies
    p = net.n_ports
    chunk = max(1, _POLE_CHUNK_BYTES // (16 * net.size * p * p))
    spans = [(i, min(i + chunk, len(freqs))) for i in range(0, len(freqs), chunk)]
    out = np.empty((len(freqs), p, p), dtype=complex)
    if threads is None:
        threads = _env_threads()

    def work(span):
        lo, hi = span
        try:
            out[lo:hi] = _smatrices(net, freqs[lo:hi])
        except SingularSystem as exc:
            idx = int(np.searchsorted(freqs, exc.omega))
            raise SingularSystem(exc.omega, index=idx) from None

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, spans))
    else:
        for span in spans:
            work(span)
    return ScatteringResponse(grid=grid, smatrices=out, network=net)


def unitarity_defect(resp: ScatteringResponse) -> float:
    """Max-norm of S^dagger S - I over the whole sweep."""
    S = resp.smatrices
    gram = np.einsum("fji,fjk->fik", S.conj(), S)
    gram -= np.eye(S.shape[1])
    return float(np.max(np.abs(gram)))
