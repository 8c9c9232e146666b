"""Independent plain-numpy reference for the conical-kernel particle system.

Written from the equations alone, not from the package: it never imports
geoshoot.  Kernel G(r) = exp(-r / alpha), normalized to G(0) = 1.

    H  = sum_ij (p_i . p_j) G(|q_i - q_j|)            (= p'Kp)
    q' = K p
    p' = -sum_{j != i} (p_i . p_j) G'(r_ij) (q_i - q_j) / r_ij,  G'(r) = -G(r) / alpha
"""

import numpy as np


def gram(q, alpha=1.0):
    """Kernel matrix K, distances r and differences q_i - q_j."""
    diff = q[:, None, :] - q[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return np.exp(-r / alpha), r, diff


def hamiltonian(q, p, alpha=1.0):
    return float(np.einsum("ik,ij,jk->", p, gram(q, alpha)[0], p))


def rhs(q, p, alpha=1.0):
    k, r, diff = gram(q, alpha)
    np.fill_diagonal(r, np.inf)  # drops the j = i term of the momentum sum
    w = (p @ p.T) * (k / alpha) / r  # -(p_i . p_j) G'(r) / r
    return k @ p, np.einsum("ij,ijk->ik", w, diff)


def rk4(q, p, steps, t_final=1.0, alpha=1.0):
    """Fixed-step classical RK4 over [0, t_final]; returns the final (q, p)."""
    dt = t_final / steps
    for _ in range(steps):
        k1 = rhs(q, p, alpha)
        k2 = rhs(q + 0.5 * dt * k1[0], p + 0.5 * dt * k1[1], alpha)
        k3 = rhs(q + 0.5 * dt * k2[0], p + 0.5 * dt * k2[1], alpha)
        k4 = rhs(q + dt * k3[0], p + dt * k3[1], alpha)
        q = q + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        p = p + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return q, p
