"""Material segmentation by propagation over the global cell table.

A global 45x48 table collects, per cell, the per-vertex mean rgb samples of
all (subsampled) vertices. Cells are clustered independently by flat-kernel
meanshift; the most separable cell seeds two material groups which are then
grown cell by cell, ranked by a separability score of refitted Gaussians and
gated by a 3-sigma Mahalanobis rule. Vertices that never pass the gate stay
unclassified. The multi-material variant repeats the process one material
per round, seeding from the most separable cluster, with no material count
supplied by the user.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.spatial import cKDTree

from .brdf_table import N_CELLS, N_D, concat_cells

COV_REG_EPS = 1e-6
MIN_CLUSTER_SIZE = 10
MIN_CELL_SAMPLES = 20
MIN_FIT_SAMPLES = 10
DISCARD_FRACTION = 0.05
SIGMA_GATE = 3.0


@dataclass
class GaussianCluster:
    mean: np.ndarray  # (3,)
    covariance: np.ndarray  # (3,3) SPD after regularization
    members: np.ndarray  # vertex ids, (m,)


@dataclass
class MaterialGroups:
    groups: list  # list of sets of vertex ids
    unclassified: set

    @property
    def classified(self) -> set:
        out = set()
        for g in self.groups:
            out |= g
        return out


class GlobalCellTable:
    """Per-cell arrays of (vertex id, per-vertex mean rgb sample)."""

    def __init__(self, cells: dict, sampled_ids: np.ndarray):
        # flat cell index -> (vertex_ids (m,), samples (m,3))
        self.cells = cells
        self.sampled_ids = np.asarray(sampled_ids, dtype=int)

    def __len__(self) -> int:
        return len(self.cells)


def build_global_table(records, sample_budget: int, rng_seed: int) -> GlobalCellTable:
    """Subsample up to `sample_budget` vertices (seeded, without replacement)
    and scatter their non-empty cell means into the table."""
    if not records:
        raise ValueError("no reflectance records")
    if sample_budget < 1:
        raise ValueError("sample budget must be >= 1")
    rng = np.random.default_rng(rng_seed)
    n = len(records)
    take = min(sample_budget, n)
    chosen = np.sort(rng.choice(n, size=take, replace=False))
    sampled = np.array([records[i].vertex_id for i in chosen])
    tables = [records[i].table for i in chosen]
    flat, vals, counts = concat_cells(tables)
    vids = np.repeat(sampled, [len(t) for t in tables])
    measured = counts > 0
    flat, vals, vids = flat[measured], vals[measured], vids[measured]
    # stable: each cell keeps its samples in chosen-record order, which the
    # meanshift mode merge depends on
    order = np.argsort(flat, kind="stable")
    bounds = np.nonzero(np.diff(flat[order]))[0] + 1
    cells = {int(flat[rows[0]]): (vids[rows], vals[rows])
             for rows in np.split(order, bounds) if len(rows)}
    return GlobalCellTable(cells, sampled)


def default_bandwidth(samples) -> float:
    """Half the root of summed per-channel population variances."""
    samples = np.asarray(samples, dtype=float).reshape(-1, 3)
    if len(samples) < 2:
        raise ValueError("bandwidth needs at least 2 samples")
    return 0.5 * float(np.sqrt(np.var(samples, axis=0).sum()))


def meanshift(samples, bandwidth: float, max_iter: int = 100):
    """Flat-kernel meanshift. Every sample is iterated to its mode (mean of
    samples within the bandwidth) until the shift drops below 1e-4*bandwidth;
    modes within bandwidth/2 are merged and samples assigned to the nearest
    merged mode. Returns cluster index arrays, largest first."""
    pts = np.asarray(samples, dtype=float).reshape(-1, 3)
    n = len(pts)
    if n == 0:
        return []
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    modes = pts.copy()
    tol = 1e-4 * bandwidth
    bw2 = bandwidth * bandwidth
    active = np.ones(n, dtype=bool)
    chunk = max(1, int(4_000_000 // max(n, 1)))
    pts_sq = np.einsum("ij,ij->i", pts, pts)
    for _ in range(max_iter):
        idx = np.nonzero(active)[0]
        if len(idx) == 0:
            break
        for lo in range(0, len(idx), chunk):
            sel = idx[lo:lo + chunk]
            m = modes[sel]
            d2 = (np.einsum("ij,ij->i", m, m)[:, None] + pts_sq[None, :]
                  - 2.0 * (m @ pts.T))
            within = d2 <= bw2
            new = (within @ pts) / within.sum(1)[:, None]
            shift2 = ((new - m) ** 2).sum(-1)
            modes[sel] = new
            active[sel] = shift2 >= tol * tol

    centers = []
    for i in range(n):
        m = modes[i]
        if not any(np.linalg.norm(m - c) < bandwidth / 2 for c in centers):
            centers.append(m.copy())
    centers = np.array(centers)
    d2c = ((modes[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
    assign = np.argmin(d2c, axis=1)
    clusters = [np.nonzero(assign == k)[0] for k in range(len(centers))]
    clusters = [c for c in clusters if len(c) > 0]
    clusters.sort(key=lambda c: (-len(c), int(c[0])))
    return clusters


def fit_gaussian(samples, members=None) -> GaussianCluster:
    """Mean + regularized population covariance of the samples."""
    samples = np.asarray(samples, dtype=float).reshape(-1, 3)
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / len(samples)
    tr = np.trace(cov)
    if tr <= 0:
        cov = cov + 1e-12 * np.eye(3)
    else:
        cov = cov + COV_REG_EPS * (tr / 3.0) * np.eye(3)
    if members is None:
        members = np.zeros(0, dtype=int)
    return GaussianCluster(mean, cov, np.asarray(members, dtype=int))


def mahalanobis(x, mean, covariance) -> float:
    """sqrt((x-mu)^T S^-1 (x-mu)); covariance must be SPD."""
    diff = np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)
    factor = cho_factor(np.asarray(covariance, dtype=float), lower=True)
    return float(np.sqrt(diff @ cho_solve(factor, diff)))


def mahalanobis_many(xs, mean, covariance) -> np.ndarray:
    diff = np.asarray(xs, dtype=float).reshape(-1, 3) - np.asarray(mean, dtype=float)
    chol = np.linalg.cholesky(np.asarray(covariance, dtype=float))
    y = solve_triangular(chol, diff.T, lower=True)
    return np.sqrt((y * y).sum(axis=0))


def separability_score(g1: GaussianCluster, g2: GaussianCluster) -> float:
    """Sum of cross Mahalanobis distances between the two Gaussians' means."""
    return (mahalanobis(g2.mean, g1.mean, g1.covariance)
            + mahalanobis(g1.mean, g2.mean, g2.covariance))


class Assignment(enum.Enum):
    GROUP1 = 1
    GROUP2 = 2
    AMBIGUOUS = 0


def assign_3sigma(sample, g1: GaussianCluster, g2: GaussianCluster) -> Assignment:
    """3-sigma gate: a sample joins a group only when it is inside one
    Gaussian's 3-sigma ellipsoid and outside the other's (strict)."""
    md1 = mahalanobis(sample, g1.mean, g1.covariance)
    md2 = mahalanobis(sample, g2.mean, g2.covariance)
    if md1 < SIGMA_GATE and md2 > SIGMA_GATE:
        return Assignment.GROUP1
    if md1 > SIGMA_GATE and md2 < SIGMA_GATE:
        return Assignment.GROUP2
    return Assignment.AMBIGUOUS


def assign_3sigma_many(samples, g1: GaussianCluster, g2: GaussianCluster):
    md1 = mahalanobis_many(samples, g1.mean, g1.covariance)
    md2 = mahalanobis_many(samples, g2.mean, g2.covariance)
    out = np.zeros(len(md1), dtype=int)
    out[(md1 < SIGMA_GATE) & (md2 > SIGMA_GATE)] = 1
    out[(md1 > SIGMA_GATE) & (md2 < SIGMA_GATE)] = 2
    return out


def initial_clusters(table: GlobalCellTable,
                     min_cluster_size: int = MIN_CLUSTER_SIZE,
                     min_cell_samples: int = MIN_CELL_SAMPLES) -> dict:
    """Cell -> surviving Gaussian clusters. Cells with too few samples are
    skipped; clusters below 5% of the cell or below the minimum size are
    discarded."""
    out = {}
    for flat, (vids, vals) in table.cells.items():
        if len(vids) < min_cell_samples:
            continue
        bw = default_bandwidth(vals)
        floor = 1e-6 * float(np.linalg.norm(vals, axis=1).mean())
        bw = max(bw, floor, 1e-12)
        clusters = meanshift(vals, bw)
        keep = []
        for c in clusters:
            if len(c) < min_cluster_size or len(c) < DISCARD_FRACTION * len(vids):
                continue
            g = fit_gaussian(vals[c], vids[c])
            keep.append(g)
        if keep:
            out[flat] = keep
    return out


def _top_two(clusters):
    ordered = sorted(clusters, key=lambda g: -len(g.members))
    return ordered[0], ordered[1]


def propagation_score(vids, vals, mat1_mask, mat2_mask, n1: int, n2: int,
                      min_fit: int = MIN_FIT_SAMPLES, require_half2: bool = True):
    """Score for propagating two groups into a cell: zero unless the cell
    contains at least half of each group; otherwise the separability of
    Gaussians refitted to the in-cell members of each group.

    With require_half2=False the half-coverage rule is enforced only for the
    first group (used by the multi-material rounds, where the second group is
    a reference cluster rather than a co-grown material)."""
    in1 = mat1_mask[vids]
    in2 = mat2_mask[vids]
    c1 = int(in1.sum())
    c2 = int(in2.sum())
    if 2 * c1 < n1 or c1 < min_fit or c2 < min_fit:
        return 0.0, None, None
    if require_half2 and 2 * c2 < n2:
        return 0.0, None, None
    g1 = fit_gaussian(vals[in1], vids[in1])
    g2 = fit_gaussian(vals[in2], vids[in2])
    return separability_score(g1, g2), g1, g2


def _mask_size(table: GlobalCellTable) -> int:
    m = int(table.sampled_ids.max()) + 1 if len(table.sampled_ids) else 1
    for vids, _ in table.cells.values():
        if len(vids):
            m = max(m, int(vids.max()) + 1)
    return m


def _candidate_cells(table: GlobalCellTable, min_cell_samples: int):
    return [flat for flat in sorted(table.cells)
            if len(table.cells[flat][0]) >= min_cell_samples]


def _propagate_two(table, candidates, consumed, mat1_mask, mat2_mask,
                   assignable=None, require_half2=True):
    """Grow two groups cell by cell: repeatedly pick the unconsumed cell with
    the highest propagation score and gate its still-unassigned vertices by
    the 3-sigma rule. Masks are updated in place; returns cells consumed."""
    grown = 0
    for _ in range(N_CELLS):
        n1 = int(mat1_mask.sum())
        n2 = int(mat2_mask.sum())
        if n1 == 0 or n2 == 0:
            break
        best = (0.0, None, None, None)
        for flat in candidates:
            if flat in consumed:
                continue
            cv, cs = table.cells[flat]
            score, g1, g2 = propagation_score(cv, cs, mat1_mask, mat2_mask,
                                              n1, n2, require_half2=require_half2)
            if score > best[0]:
                best = (score, flat, g1, g2)
        if best[1] is None:
            break
        _, flat, g1, g2 = best
        cv, cs = table.cells[flat]
        fresh = ~(mat1_mask[cv] | mat2_mask[cv])
        if assignable is not None:
            fresh &= assignable[cv]
        if fresh.any():
            codes = assign_3sigma_many(cs[fresh], g1, g2)
            mat1_mask[cv[fresh][codes == 1]] = True
            mat2_mask[cv[fresh][codes == 2]] = True
        consumed.add(flat)
        grown += 1
    return grown


def two_material_segmentation(table: GlobalCellTable,
                              min_cluster_size: int = MIN_CLUSTER_SIZE,
                              min_cell_samples: int = MIN_CELL_SAMPLES):
    """Seed two material groups in the most separable cell and grow them cell
    by cell. Returns (MaterialGroups, diagnostics dict)."""
    clusters = initial_clusters(table, min_cluster_size, min_cell_samples)
    diagnostics = {"seed_cell": None, "cells_consumed": 0,
                   "initial_cells": len(clusters)}

    # a seed cluster must be a population-significant chunk of the scan, not
    # just of its own cell, so that a tiny tight contaminant cluster cannot
    # win the seed by its arbitrarily small covariance
    seed_floor = max(min_cluster_size,
                     int(DISCARD_FRACTION * len(table.sampled_ids)))
    best_cell, best_score, best_pair = None, 0.0, None
    for flat in sorted(clusters):
        cl = clusters[flat]
        if len(cl) < 2:
            continue
        g1, g2 = _top_two(cl)
        if len(g1.members) < seed_floor or len(g2.members) < seed_floor:
            continue
        score = separability_score(g1, g2)
        if score > best_score:
            best_cell, best_score, best_pair = flat, score, (g1, g2)
    if best_cell is None:
        diagnostics["reason"] = "no separable initial cell"
        return MaterialGroups([], set(int(v) for v in table.sampled_ids)), diagnostics
    diagnostics["seed_cell"] = (best_cell // N_D, best_cell % N_D)

    size = _mask_size(table)
    mat1_mask = np.zeros(size, dtype=bool)
    mat2_mask = np.zeros(size, dtype=bool)
    vids, vals = table.cells[best_cell]
    codes = assign_3sigma_many(vals, *best_pair)
    mat1_mask[vids[codes == 1]] = True
    mat2_mask[vids[codes == 2]] = True

    consumed = {best_cell}
    candidates = _candidate_cells(table, min_cell_samples)
    diagnostics["cells_consumed"] = _propagate_two(
        table, candidates, consumed, mat1_mask, mat2_mask)

    mat1 = set(int(v) for v in np.nonzero(mat1_mask)[0])
    mat2 = set(int(v) for v in np.nonzero(mat2_mask)[0])
    sampled = set(int(v) for v in table.sampled_ids)
    groups = [g for g in (mat1, mat2) if g]
    unclassified = sampled - mat1 - mat2
    return MaterialGroups(groups, unclassified), diagnostics


def _absorb_single(table, candidates, consumed, new_mask, blocked,
                   min_fit: int = MIN_FIT_SAMPLES):
    """Grow a group through cells that have no reference population to fit a
    second Gaussian (cells dominated by one material). Any unconsumed cell
    holding at least half of the group gates its remaining unblocked vertices
    against the group's own in-cell Gaussian; samples beyond the 3-sigma
    distance stay out, so ambiguous vertices remain unclassified."""
    while True:
        n1 = int(new_mask.sum())
        best = (0, None)
        for flat in candidates:
            if flat in consumed:
                continue
            cv, cs = table.cells[flat]
            c1 = int(new_mask[cv].sum())
            if c1 < min_fit or 2 * c1 < n1:
                continue
            if c1 > best[0]:
                best = (c1, flat)
        if best[1] is None:
            return
        flat = best[1]
        cv, cs = table.cells[flat]
        in1 = new_mask[cv]
        g1 = fit_gaussian(cs[in1], cv[in1])
        fresh = ~in1 & ~blocked[cv]
        if fresh.any():
            md = mahalanobis_many(cs[fresh], g1.mean, g1.covariance)
            new_mask[cv[fresh][md < SIGMA_GATE]] = True
        consumed.add(flat)


def multi_material_segmentation(table: GlobalCellTable,
                                min_cluster_size: int = MIN_CLUSTER_SIZE,
                                min_cell_samples: int = MIN_CELL_SAMPLES):
    """Segment one material per round without a user-supplied material count.

    Each round seeds from the globally most separable unclaimed cluster (its
    separability is the score against its nearest same-cell competitor), then
    runs the same two-group propagation as the two-material case with the
    competitor cluster as the reference group. Only the seeded group is
    committed; the reference side is rediscovered in its own round. Rounds
    continue until no seed classifies anything new."""
    sampled = set(int(v) for v in table.sampled_ids)
    if len(table) == 0:
        return MaterialGroups([], sampled), {"rounds": 0}
    clusters = initial_clusters(table, min_cluster_size, min_cell_samples)
    size = _mask_size(table)
    classified = np.zeros(size, dtype=bool)
    groups: list[set] = []
    tried = set()
    diagnostics = {"rounds": 0, "seeds": []}
    candidates = _candidate_cells(table, min_cell_samples)

    while True:
        # most separable not-yet-claimed cluster across all cells; as in the
        # two-material seed, a cluster must hold a population-significant
        # share of the still-unclassified vertices to start a round
        n_open = int((~classified[table.sampled_ids]).sum())
        seed_floor = max(min_cluster_size, int(DISCARD_FRACTION * n_open))
        best = (0.0, None, None)  # score, cell, cluster idx
        for flat in sorted(clusters):
            cl = clusters[flat]
            if len(cl) < 2:
                continue
            for ci, g in enumerate(cl):
                if (flat, ci) in tried:
                    continue
                un = ~classified[g.members]
                if un.sum() < seed_floor or 2 * un.sum() < len(g.members):
                    continue
                near = min(separability_score(g, other)
                           for cj, other in enumerate(cl) if cj != ci)
                if near > best[0]:
                    best = (near, flat, ci)
        if best[1] is None:
            break
        _, seed_flat, seed_ci = best
        tried.add((seed_flat, seed_ci))
        seed_cluster = clusters[seed_flat][seed_ci]
        competitor = min(
            (g for cj, g in enumerate(clusters[seed_flat]) if cj != seed_ci),
            key=lambda g: separability_score(seed_cluster, g))

        new_mask = np.zeros(size, dtype=bool)
        ref_mask = np.zeros(size, dtype=bool)
        vids, vals = table.cells[seed_flat]
        codes = assign_3sigma_many(vals, seed_cluster, competitor)
        fresh = ~classified[vids]
        new_mask[vids[fresh & (codes == 1)]] = True
        ref_mask[vids[codes == 2]] = True
        if new_mask.sum() < min_cluster_size:
            continue

        consumed = {seed_flat}
        _propagate_two(table, candidates, consumed, new_mask, ref_mask,
                       assignable=~classified, require_half2=False)
        _absorb_single(table, candidates, consumed, new_mask,
                       classified | ref_mask)

        new_ids = set(int(v) for v in np.nonzero(new_mask & ~classified)[0])
        if len(new_ids) < min_cluster_size:
            continue
        groups.append(new_ids)
        classified[list(new_ids)] = True
        diagnostics["rounds"] += 1
        diagnostics["seeds"].append((seed_flat // N_D, seed_flat % N_D))

    unclassified = sampled - set(int(v) for v in np.nonzero(classified)[0])
    groups.sort(key=len, reverse=True)
    return MaterialGroups(groups, unclassified), diagnostics


def diffuse_labels(groups: MaterialGroups, positions: np.ndarray,
                   sampled_ids, radius: float = 0.01) -> np.ndarray:
    """Label every vertex: sampled classified vertices keep their group,
    other vertices take the label of the nearest classified sampled vertex
    within `radius` (ties broken toward the lower vertex id), else -1."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    n = len(positions)
    labels = np.full(n, -1, dtype=int)
    for gi, g in enumerate(groups.groups):
        labels[np.fromiter(g, dtype=int, count=len(g))] = gi
    classified_ids = np.nonzero(labels >= 0)[0]
    if len(classified_ids) == 0:
        return labels
    sampled_set = set(int(v) for v in sampled_ids)
    targets = np.array([i for i in range(n)
                        if labels[i] < 0 and i not in sampled_set], dtype=int)
    if len(targets) == 0:
        return labels
    tree = cKDTree(positions[classified_ids])
    k = min(2, len(classified_ids))
    dist, idx = tree.query(positions[targets], k=k)
    if k == 1:
        dist = dist[:, None]
        idx = idx[:, None]
    for row, t in enumerate(targets):
        if dist[row, 0] > radius:
            continue
        pick = classified_ids[idx[row, 0]]
        if k > 1 and abs(dist[row, 1] - dist[row, 0]) < 1e-12:
            pick = min(pick, classified_ids[idx[row, 1]])
        labels[t] = labels[pick]
    return labels
