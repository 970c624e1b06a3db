"""No-regret dual updates: exponentiated gradient on the scaled simplex and
online gradient descent with nonnegativity clip and l2-ball projection."""

import math

import numpy as np

EG_FLAVOR = "eg"
OGD_FLAVOR = "ogd"


class DualVector:
    """Lagrange multiplier with an l1 budget B.

    EG flavor: length m+1 (augmented coordinate absorbs slack), all coords
    positive, summing to B. OGD flavor: length m, nonnegative, l2 norm <= B.
    """

    def __init__(self, coords, budget, flavor):
        self.coords = np.asarray(coords, dtype=float)
        self.budget = float(budget)
        self.flavor = flavor
        if flavor not in (EG_FLAVOR, OGD_FLAVOR):
            raise ValueError(f"unknown dual flavor {flavor!r}")
        if flavor == EG_FLAVOR:
            if np.any(self.coords <= 0) or abs(self.coords.sum() - self.budget) > 1e-9:
                raise ValueError("EG dual must be positive and sum to the budget")
        else:
            if np.any(self.coords < 0) or np.linalg.norm(self.coords) > self.budget + 1e-9:
                raise ValueError("OGD dual must be nonnegative inside the l2 ball")


def eg_init(m, B):
    """Uniform augmented vector (B/(m+1), ..., B/(m+1)) of length m+1."""
    if B <= 0:
        raise ValueError("budget B must be positive")
    return DualVector(np.full(m + 1, B / (m + 1)), B, EG_FLAVOR)


def ogd_init(m, B):
    return DualVector(np.zeros(m), B, OGD_FLAVOR)


def augmented_loss(g_hat, tau):
    """z = [(G_hat - tau)^T, 0]^T for the EG player."""
    diff = np.asarray(g_hat, dtype=float) - np.asarray(tau, dtype=float)
    return np.concatenate([diff, [0.0]])


def eg_update(lam, z, eta):
    """Multiplicative update lam'[i] = B lam[i] e^{-eta z[i]} / normalizer.

    Stabilized with max-subtraction so large eta*z never overflows.
    """
    if lam.flavor != EG_FLAVOR:
        raise ValueError("eg_update requires an EG-flavor DualVector")
    if eta <= 0:
        raise ValueError("eta must be positive")
    z = np.asarray(z, dtype=float)
    logits = np.log(lam.coords) - eta * z
    logits -= logits.max()
    # The floor keeps coordinates strictly positive when eta*z spans many
    # hundreds of orders of magnitude.
    w = np.maximum(np.exp(logits), 1e-300)
    return DualVector(lam.budget * w / w.sum(), lam.budget, EG_FLAVOR)


def ogd_update(lam, z, eta):
    """Ascent step on lam.z, coordinatewise clip at 0, then the projection
    P(lam) = B lam / max(B, ||lam||_2)."""
    if lam.flavor != OGD_FLAVOR:
        raise ValueError("ogd_update requires an OGD-flavor DualVector")
    moved = np.clip(lam.coords + eta * np.asarray(z, dtype=float), 0.0, None)
    norm = np.linalg.norm(moved)
    if norm > lam.budget:
        moved = lam.budget * moved / norm
    return DualVector(moved, lam.budget, OGD_FLAVOR)


def eg_regret_bound(B, eta, G_bar, T, m=1):
    """Average-regret bound B log(m+1)/(eta T) + eta B G_bar^2."""
    return B * math.log(m + 1) / (eta * T) + eta * B * G_bar ** 2
