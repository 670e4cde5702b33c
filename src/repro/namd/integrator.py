"""Velocity-Verlet integration and diagnostics."""

from __future__ import annotations

import numpy as np

__all__ = ["kick", "drift", "kinetic_energy", "remove_drift"]


def kick(velocities: np.ndarray, forces: np.ndarray, masses: np.ndarray, dt: float) -> None:
    """Half-step velocity update, in place: v += (dt/2) F/m."""
    velocities += 0.5 * dt * forces / masses[:, None]


def drift(positions: np.ndarray, velocities: np.ndarray, dt: float, box: np.ndarray) -> None:
    """Full-step position update with periodic wrap, in place."""
    positions += dt * velocities
    positions %= box


def kinetic_energy(velocities: np.ndarray, masses: np.ndarray) -> float:
    return 0.5 * float(np.sum(masses[:, None] * velocities**2))


def remove_drift(velocities: np.ndarray, masses: np.ndarray) -> None:
    """Zero the centre-of-mass momentum, in place."""
    p = np.sum(masses[:, None] * velocities, axis=0)
    velocities -= p / np.sum(masses)
