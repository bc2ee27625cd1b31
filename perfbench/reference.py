"""Reference integrator that shares no code with annealsim.

Both equations are integrated in reduced time ``s = t / T`` on [0, 1] with
``scipy.integrate.solve_ivp`` (DOP853).  Everything is rebuilt from the
written definitions, in the full ``2**N`` space and without the spin-flip
reduction:

* basis state ``i`` gives qubit ``q`` the spin ``+1`` when bit ``q`` is 0;
* ``H_f = -sum_{k<l} J_kl z_k z_l`` from an instance's coupling matrix;
* ``H_i = -sum_q sigma_x^q``, applied as one bit flip per qubit;
* ``H(s) = (1 - s) H_i + s H_f``, starting from the uniform superposition;
* the jump operator is ``L = l_scale * a`` with ``a |e_k> = sqrt(k) |e_{k-1}>``
  on the basis sorted by (energy, index).

The success probability is the population of the minimal-energy states.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse import csr_matrix

# Standard and tighter tolerance pairs (rtol, atol); the gap between the two
# answers is the reference's own error estimate.
STANDARD = (1e-10, 1e-12)
TIGHT = (1e-12, 1e-14)


def instance_seed(master_seed: int, k: int) -> int:
    """Seed of instance ``k``: the first word of ``SeedSequence(master, spawn_key=(k,))``."""
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(k),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def instance_couplings(n_qubits: int, seed: int) -> np.ndarray:
    """Couplings of a seeded instance: +/-1 signs from Philox in pair order (0,1), (0,2), ..."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    bits = gen.integers(0, 2, size=n_qubits * (n_qubits - 1) // 2)
    j = np.zeros((n_qubits, n_qubits), dtype=np.int64)
    pairs = [(k, l) for k in range(n_qubits) for l in range(k + 1, n_qubits)]
    for (k, l), bit in zip(pairs, bits):
        j[k, l] = 2 * int(bit) - 1
    return j


def couplings_text(j: np.ndarray) -> str:
    """The signs of ``J_kl`` (k < l) in pair order, as ``+`` and ``-``."""
    n = j.shape[0]
    return "".join("+" if j[k, l] > 0 else "-" for k in range(n) for l in range(k + 1, n))


def ising_energies(couplings) -> np.ndarray:
    """Full-space diagonal of ``-sum_{k<l} J_kl z_k z_l`` (exact integers)."""
    j = np.asarray(couplings, dtype=np.int64)
    n = j.shape[0]
    index = np.arange(1 << n)
    spins = [1 - 2 * ((index >> q) & 1) for q in range(n)]
    energy = np.zeros(1 << n, dtype=np.int64)
    for k in range(n):
        for l in range(k + 1, n):
            energy -= j[k, l] * spins[k] * spins[l]
    return energy


def flip_sum(x: np.ndarray, n_qubits: int, axis: int = 0) -> np.ndarray:
    """``sum_q sigma_x^q`` applied along one axis of length ``2**n_qubits``."""
    x = np.moveaxis(x, axis, 0)
    rest = x.shape[1:]
    out = np.zeros_like(x)
    for q in range(n_qubits):
        view = x.reshape((1 << (n_qubits - 1 - q), 2, 1 << q) + rest)
        out += view[:, ::-1].reshape(x.shape)
    return np.moveaxis(out, 0, axis)


def ladder_operator(energies) -> csr_matrix:
    """Lowering operator ``a |e_k> = sqrt(k) |e_{k-1}>`` on the sorted basis."""
    energies = np.asarray(energies)
    order = sorted(range(len(energies)), key=lambda i: (energies[i], i))
    rows = [order[k - 1] for k in range(1, len(order))]
    cols = [order[k] for k in range(1, len(order))]
    vals = [np.sqrt(k) for k in range(1, len(order))]
    dim = len(order)
    return csr_matrix((np.asarray(vals, dtype=complex), (rows, cols)), shape=(dim, dim))


def _integrate(rhs, y0: np.ndarray, tolerances) -> np.ndarray:
    rtol, atol = tolerances
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=rtol, atol=atol,
                    t_eval=[1.0])
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def schrodinger_p(couplings, t_anneal: float, tolerances=STANDARD) -> float:
    """Ground-space population after the unitary anneal."""
    energy = ising_energies(couplings)
    n = np.asarray(couplings).shape[0]
    e = energy.astype(float)

    def rhs(s, psi):
        return -1j * t_anneal * (-(1.0 - s) * flip_sum(psi, n) + s * e * psi)

    psi0 = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)
    psi = _integrate(rhs, psi0, tolerances)
    return float(np.sum(np.abs(psi[energy == energy.min()]) ** 2))


def master_equation_final(apply_h, lind: csr_matrix, rho0: np.ndarray, t_total: float,
                          tolerances=STANDARD) -> np.ndarray:
    """Integrate ``d rho/dt = -i[H, rho] + L rho L^+ - {L^+ L, rho}/2`` to ``t_total``.

    ``apply_h(s, rho)`` returns ``H(s) rho`` for the Hermitian ``H(s)`` at
    reduced time ``s = t / t_total``.
    """
    dim = rho0.shape[0]
    lind_h = lind.conj().T.tocsr()
    lind_sq = (lind_h @ lind).tocsr()

    def rhs(s, y):
        # rho and H are Hermitian, so rho H = (H rho)^+ and rho A = (A rho)^+.
        rho = y.reshape(dim, dim)
        h_rho = apply_h(s, rho)
        comm = h_rho - h_rho.conj().T
        l_rho = lind @ rho
        jump = (lind @ l_rho.conj().T).conj().T
        anti = lind_sq @ rho
        out = -1j * comm + jump - 0.5 * (anti + anti.conj().T)
        return t_total * out.ravel()

    return _integrate(rhs, rho0.astype(complex).ravel(), tolerances).reshape(dim, dim)


def lindblad_p(couplings, t_anneal: float, l_scale: float, tolerances=STANDARD) -> float:
    """Ground-space population after the dissipative anneal."""
    energy = ising_energies(couplings)
    n = np.asarray(couplings).shape[0]
    e = energy.astype(float)[:, None]

    def apply_h(s, rho):
        return -(1.0 - s) * flip_sum(rho, n, axis=0) + s * e * rho

    psi0 = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)
    rho = master_equation_final(apply_h, l_scale * ladder_operator(energy),
                                np.outer(psi0, psi0.conj()), t_anneal, tolerances)
    return float(np.sum(np.diag(rho).real[energy == energy.min()]))
