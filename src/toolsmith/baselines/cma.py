"""Covariance matrix adaptation evolution strategy, maximize convention.

Implements the standard rank-one plus rank-mu update with cumulative step
size adaptation. The state is a plain dataclass so runs can be serialized
and inspected; ask/tell are pure functions of it. cma_search is the one
generation loop both CMA baselines run.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from toolsmith.ppo import METRICS_HEADER, _append_csv

EIG_FLOOR_REL = 1e-14
GENERATIONS_FILE = "generations.jsonl"


@dataclass
class CmaState:
    """Search distribution plus the two evolution paths."""

    mean: np.ndarray
    sigma: float
    covariance: np.ndarray
    p_sigma: np.ndarray
    p_c: np.ndarray
    generation: int
    population_size: int
    weights: np.ndarray

    def __post_init__(self):
        n = self.mean.shape[0]
        assert self.covariance.shape == (n, n)
        assert self.sigma > 0.0
        assert np.all(self.weights > 0)
        assert abs(self.weights.sum() - 1.0) < 1e-9


def cma_init(mean, sigma: float = 0.1, population_size: int = 24) -> CmaState:
    """Fresh state centred on mean with isotropic covariance."""
    mean = np.asarray(mean, dtype=np.float64).copy()
    n = mean.shape[0]
    mu = population_size // 2
    raw = np.log((population_size + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    return CmaState(
        mean=mean,
        sigma=float(sigma),
        covariance=np.eye(n),
        p_sigma=np.zeros(n),
        p_c=np.zeros(n),
        generation=0,
        population_size=population_size,
        weights=raw / raw.sum(),
    )


def _sqrt_factors(cov: np.ndarray):
    """Return (C^{1/2}, C^{-1/2}) via the symmetric eigendecomposition."""
    eigs, basis = np.linalg.eigh(cov)
    eigs = np.maximum(eigs, eigs.max() * EIG_FLOOR_REL)
    root = np.sqrt(eigs)
    return basis * root @ basis.T, (basis / root) @ basis.T


def cma_ask(state: CmaState, rng: np.random.Generator) -> np.ndarray:
    """Sample population_size candidates from N(mean, sigma^2 C)."""
    half, _ = _sqrt_factors(state.covariance)
    z = rng.standard_normal((state.population_size, state.mean.shape[0]))
    return state.mean + state.sigma * z @ half.T


def cma_tell(state: CmaState, candidates: np.ndarray,
             fitnesses: np.ndarray) -> CmaState:
    """One update step from evaluated candidates; higher fitness is better.

    Candidates with non-finite fitness are excluded with a warning. Returns a
    new state; the input state is not modified.
    """
    candidates = np.asarray(candidates, dtype=np.float64)
    fitnesses = np.asarray(fitnesses, dtype=np.float64)
    finite = np.isfinite(fitnesses)
    if not np.all(finite):
        warnings.warn(f"excluding {int(np.count_nonzero(~finite))} candidates "
                      "with non-finite fitness")
        candidates = candidates[finite]
        fitnesses = fitnesses[finite]
    if fitnesses.size == 0:
        raise ValueError("no candidates with finite fitness")

    n = state.mean.shape[0]
    lam = state.population_size
    mu = min(state.weights.shape[0], fitnesses.size)
    weights = state.weights[:mu]
    weights = weights / weights.sum()
    mu_eff = 1.0 / float(weights @ weights)

    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) \
        + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1,
               2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))

    order = np.argsort(-fitnesses, kind="stable")[:mu]
    y = (candidates[order] - state.mean) / state.sigma
    y_w = weights @ y
    mean = state.mean + state.sigma * y_w

    _, inv_half = _sqrt_factors(state.covariance)
    p_sigma = (1.0 - c_sigma) * state.p_sigma \
        + math.sqrt(c_sigma * (2.0 - c_sigma) * mu_eff) * (inv_half @ y_w)
    gen = state.generation + 1
    norm = np.linalg.norm(p_sigma) \
        / math.sqrt(1.0 - (1.0 - c_sigma) ** (2 * gen))
    h_sigma = 1.0 if norm < (1.4 + 2.0 / (n + 1.0)) * chi_n else 0.0
    p_c = (1.0 - c_c) * state.p_c \
        + h_sigma * math.sqrt(c_c * (2.0 - c_c) * mu_eff) * y_w

    rank_mu = (weights[:, None] * y).T @ y
    cov = (1.0 - c_1 - c_mu) * state.covariance \
        + c_1 * (np.outer(p_c, p_c)
                 + (1.0 - h_sigma) * c_c * (2.0 - c_c) * state.covariance) \
        + c_mu * rank_mu
    cov = (cov + cov.T) / 2.0
    eigs, basis = np.linalg.eigh(cov)
    floor = eigs.max() * EIG_FLOOR_REL
    if eigs.min() < floor:
        eigs = np.maximum(eigs, floor)
        cov = basis * eigs @ basis.T
        cov = (cov + cov.T) / 2.0

    sigma = state.sigma * math.exp(
        (c_sigma / d_sigma) * (np.linalg.norm(p_sigma) / chi_n - 1.0))

    return CmaState(mean=mean, sigma=float(sigma), covariance=cov,
                    p_sigma=p_sigma, p_c=p_c, generation=gen,
                    population_size=lam, weights=state.weights)


def cma_search(fitness_fn, dim: int, total_steps: int, out_dir,
               rng: np.random.Generator, population_size: int, sigma0: float,
               artifact: str) -> dict:
    """Run generations from the origin until total_steps env steps are spent.

    fitness_fn(candidate) returns evaluation statistics: mean_return is the
    fitness, env_steps every env step the candidate cost, and success_rate,
    mean_d_used and mean_c_used are logged. Candidates are scored in order
    after each ask, so a fitness_fn that draws from rng stays reproducible.
    The best candidate is kept elitist-style, so best fitness never drops.

    Writes one generations.jsonl record per generation and one metrics.csv
    row in the training schema. A row pairs the population's mean return
    with the success_rate, mean_d_used and mean_c_used of the best candidate
    so far; approx_kl and entropy are 0. The caller's artifact file is
    removed up front, so an interrupted run leaves none behind.
    """
    os.makedirs(out_dir, exist_ok=True)
    gen_path = os.path.join(out_dir, GENERATIONS_FILE)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    for path in (gen_path, metrics_path, os.path.join(out_dir, artifact)):
        if os.path.exists(path):
            os.remove(path)

    state = cma_init(np.zeros(dim), sigma=sigma0,
                     population_size=population_size)
    env_steps = 0
    best_fitness = -np.inf
    best = best_stats = None
    while env_steps < total_steps:
        cands = cma_ask(state, rng)
        fits = np.empty(len(cands))
        for i, cand in enumerate(cands):
            stats = fitness_fn(cand)
            fits[i] = stats["mean_return"]
            env_steps += stats["env_steps"]
            if fits[i] > best_fitness:
                best_fitness, best, best_stats = float(fits[i]), cand.copy(), stats
        state = cma_tell(state, cands, fits)
        record = {
            "generation": state.generation,
            "best_fitness": best_fitness,
            "mean_fitness": float(fits.mean()),
            "sigma": state.sigma,
            "env_steps": env_steps,
        }
        with open(gen_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        _append_csv(metrics_path, METRICS_HEADER, [
            env_steps,
            f"{fits.mean():.6f}",
            f"{best_stats['success_rate']:.6f}",
            "0.00000000",
            "0.000000",
            f"{best_stats['mean_d_used']:.6f}",
            f"{best_stats['mean_c_used']:.6f}",
        ])
    return {
        "best_candidate": best,
        "best_stats": best_stats,
        "best_fitness": best_fitness,
        "env_steps": env_steps,
        "generations": state.generation,
        "metrics_path": metrics_path,
        "generations_path": gen_path,
    }
