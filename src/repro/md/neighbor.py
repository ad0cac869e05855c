"""Binned Verlet neighbor lists with a skin distance.

Sec. II-III of the paper: multi-body potentials use *extremely short*
neighbor lists (~4 atoms for diamond silicon), and because rebuilding
every step is too expensive, the cutoff is extended by a "skin"
distance; the resulting extended list ``S_i`` contains *skin atoms*
outside the force cutoff.  Efficiently excluding those skin atoms is
"one of the major challenges for vectorization" — the filter component
(Sec. IV-B), fast-forwarding (IV-C) and neighbor-list filtering (IV-D)
all exist because of them.  This module therefore builds the *extended*
list, exactly like LAMMPS: downstream code is responsible for skipping
skin atoms.

Construction uses cell binning (linear in the number of atoms); a
brute-force reference path exists both as a fallback for boxes too
small to bin and as the oracle for the property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.box import Box

#: Above this atom count the binned builder refuses to fall back to the
#: O(n^2) brute-force path silently — at 10^5+ atoms that fallback means
#: tens of gigabytes of distance blocks and effectively a hang, always
#: the symptom of a box too small (or not periodic) for its population.
BRUTE_FORCE_MAX_ATOMS = 20_000


class BruteForceFallbackError(ValueError):
    """Binning was impossible for a system too large to brute-force.

    Raised instead of silently running the O(n^2) reference path when a
    periodic box has fewer than 3 bins along some axis but holds more
    than :data:`BRUTE_FORCE_MAX_ATOMS` atoms.  Either the box is wrong
    (too thin for ``cutoff + skin``) or the caller really wants the
    quadratic path and should say so with ``build(..., brute_force=True)``.
    """


@dataclass(frozen=True)
class NeighborSettings:
    """Parameters of neighbor-list construction.

    Attributes
    ----------
    cutoff:
        Force cutoff in Angstrom (for Tersoff: the *maximum* R+D over
        all type pairs, cf. Sec. IV-D).
    skin:
        Extra bin/list radius; atoms are listed out to ``cutoff+skin``.
        LAMMPS metal default is 2.0, the standard Tersoff benchmark
        uses 1.0.
    full:
        Full lists store both (i,j) and (j,i); Tersoff requires full
        lists, pair potentials can use half lists.
    """

    cutoff: float
    skin: float = 1.0
    full: bool = True

    def __post_init__(self) -> None:
        if self.cutoff <= 0.0:
            raise ValueError("cutoff must be positive")
        if self.skin < 0.0:
            raise ValueError("skin must be non-negative")

    @property
    def list_cutoff(self) -> float:
        """The extended (cutoff + skin) radius actually used to build."""
        return self.cutoff + self.skin


def _expand_ranges(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-row ``[start, end)`` ranges into flat (row, value) pairs.

    Returns ``(rows, values)`` where ``values`` walks each row's range.
    """
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rows = np.repeat(np.arange(starts.shape[0], dtype=np.int64), counts)
    # offset of each output element within its own row's range
    row_first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(row_first, counts)
    values = np.repeat(starts, counts) + within
    return rows, values


def _brute_force_pairs(x: np.ndarray, box: Box, rlist: float) -> tuple[np.ndarray, np.ndarray]:
    """All ordered pairs (i, j), i != j, with r_ij <= rlist.  O(n^2)."""
    n = x.shape[0]
    i_all: list[np.ndarray] = []
    j_all: list[np.ndarray] = []
    block = max(1, int(2.0e7 // max(n, 1)))
    r2 = rlist * rlist
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        d = box.minimum_image(x[None, :, :] - x[lo:hi, None, :])
        dist2 = np.einsum("ijk,ijk->ij", d, d)
        mask = dist2 <= r2
        rows = np.arange(lo, hi)
        mask[rows - lo, rows] = False
        ii, jj = np.nonzero(mask)
        i_all.append(ii + lo)
        j_all.append(jj)
    return np.concatenate(i_all), np.concatenate(j_all)


def _binned_pairs(x: np.ndarray, box: Box, rlist: float) -> tuple[np.ndarray, np.ndarray]:
    """Cell-binned ordered pair search; requires >= 3 bins per periodic axis."""
    n = x.shape[0]
    lengths = box.lengths
    nbins = np.maximum((lengths // rlist).astype(np.int64), 1)
    if np.any(nbins[np.array(box.periodic)] < 3):
        if n > BRUTE_FORCE_MAX_ATOMS:
            short = lengths[np.array(box.periodic)].min() if np.any(box.periodic) else 0.0
            raise BruteForceFallbackError(
                f"cell binning needs >= 3 bins per periodic axis but the box "
                f"(shortest periodic edge {short:.2f} A) fits fewer at list "
                f"cutoff {rlist:.2f} A, and {n} atoms is too many for the "
                f"O(n^2) fallback (limit {BRUTE_FORCE_MAX_ATOMS}); enlarge the "
                f"box or pass build(..., brute_force=True) explicitly"
            )
        return _brute_force_pairs(x, box, rlist)
    binsize = lengths / nbins
    frac = (x - box.lo) / binsize
    cell = np.minimum(frac.astype(np.int64), nbins - 1)
    cell = np.maximum(cell, 0)
    lin = (cell[:, 0] * nbins[1] + cell[:, 1]) * nbins[2] + cell[:, 2]
    order = np.argsort(lin, kind="stable")
    lin_sorted = lin[order]
    ncells = int(np.prod(nbins))

    # start offset of every cell in the sorted ordering
    cell_start = np.searchsorted(lin_sorted, np.arange(ncells + 1))

    i_all: list[np.ndarray] = []
    j_all: list[np.ndarray] = []
    periodic = np.array(box.periodic)
    r2 = rlist * rlist
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                shift = np.array([dx, dy, dz], dtype=np.int64)
                tgt = cell + shift
                valid = np.ones(n, dtype=bool)
                for axis in range(3):
                    if periodic[axis]:
                        tgt[:, axis] %= nbins[axis]
                    else:
                        valid &= (tgt[:, axis] >= 0) & (tgt[:, axis] < nbins[axis])
                tgt_lin = (tgt[:, 0] * nbins[1] + tgt[:, 1]) * nbins[2] + tgt[:, 2]
                tgt_lin = np.where(valid, tgt_lin, 0)
                starts = np.where(valid, cell_start[tgt_lin], 0)
                ends = np.where(valid, cell_start[tgt_lin + 1], 0)
                rows, slots = _expand_ranges(starts, ends)
                if rows.size == 0:
                    continue
                cand = order[slots]
                keep = cand != rows
                rows, cand = rows[keep], cand[keep]
                d = box.minimum_image(x[cand] - x[rows])
                dist2 = np.einsum("ij,ij->i", d, d)
                keep = dist2 <= r2
                i_all.append(rows[keep])
                j_all.append(cand[keep])
    if not i_all:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(i_all), np.concatenate(j_all)


class NeighborList:
    """A CSR-format Verlet neighbor list with rebuild tracking.

    Attributes
    ----------
    neighbors:
        Flat neighbor indices, int32.
    offsets:
        Row offsets, shape ``(n+1,)``; the neighbors of atom ``i`` are
        ``neighbors[offsets[i]:offsets[i+1]]``.
    n_builds:
        How many times the list has been (re)built.
    version:
        Monotonic counter bumped on every :meth:`build`.  Anything
        derived from the list *topology* (pair expansions, triplet
        layouts, parameter gathers) is valid exactly as long as the
        version it was computed against — the interaction cache
        (:mod:`repro.core.pipeline.cache`) keys on it.
    """

    def __init__(self, settings: NeighborSettings):
        self.settings = settings
        self.neighbors = np.empty(0, dtype=np.int32)
        self.offsets = np.zeros(1, dtype=np.int64)
        self.n_builds = 0
        self.version = 0
        self._x_ref: np.ndarray | None = None
        self._box: Box | None = None

    @property
    def n_atoms(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def n_pairs(self) -> int:
        return int(self.neighbors.shape[0])

    def counts(self) -> np.ndarray:
        """Neighbors per atom, shape ``(n,)``."""
        return np.diff(self.offsets)

    def build(self, x: np.ndarray, box: Box, *, brute_force: bool = False) -> None:
        """(Re)build the list for positions `x` in `box`."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        box.check_cutoff(self.settings.list_cutoff)
        if brute_force:
            i_idx, j_idx = _brute_force_pairs(x, box, self.settings.list_cutoff)
        else:
            i_idx, j_idx = _binned_pairs(x, box, self.settings.list_cutoff)
        if not self.settings.full:
            keep = i_idx < j_idx
            i_idx, j_idx = i_idx[keep], j_idx[keep]
        n = x.shape[0]
        order = np.argsort(i_idx, kind="stable")
        i_idx, j_idx = i_idx[order], j_idx[order]
        self.neighbors = j_idx.astype(np.int32)
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(i_idx, minlength=n), out=self.offsets[1:])
        self.n_builds += 1
        self.version += 1
        self._x_ref = x.copy()
        self._box = box

    def needs_rebuild(self, x: np.ndarray) -> bool:
        """LAMMPS criterion: any atom moved more than half the skin."""
        if self._x_ref is None or self._box is None:
            return True
        if x.shape != self._x_ref.shape:
            return True
        if self.settings.skin == 0.0:
            return True
        d = self._box.minimum_image(x - self._x_ref)
        max_disp2 = float(np.max(np.einsum("ij,ij->i", d, d))) if x.shape[0] else 0.0
        return max_disp2 > (0.5 * self.settings.skin) ** 2

    def ensure(self, x: np.ndarray, box: Box) -> bool:
        """Rebuild if needed; returns True if a rebuild happened."""
        if self.needs_rebuild(x):
            self.build(x, box)
            return True
        return False

    def get_state(self) -> dict:
        """Snapshot the list for a checkpoint.

        Captures the CSR arrays, the rebuild counters and — crucially
        for bitwise restart — the reference positions of the last
        build, so a restored list makes the *same* rebuild decisions at
        the same steps as the uninterrupted run would have.
        """
        return {
            "neighbors": self.neighbors.copy(),
            "offsets": self.offsets.copy(),
            "n_builds": self.n_builds,
            "version": self.version,
            "x_ref": None if self._x_ref is None else self._x_ref.copy(),
        }

    def set_state(self, state: dict, box: Box | None) -> None:
        """Restore a :meth:`get_state` snapshot (inverse operation)."""
        self.neighbors = np.ascontiguousarray(state["neighbors"], dtype=np.int32)
        self.offsets = np.ascontiguousarray(state["offsets"], dtype=np.int64)
        self.n_builds = int(state["n_builds"])
        self.version = int(state["version"])
        x_ref = state.get("x_ref")
        self._x_ref = None if x_ref is None else np.ascontiguousarray(x_ref, dtype=np.float64)
        self._box = box if self._x_ref is not None else None

    def neighbors_of(self, i: int) -> np.ndarray:
        """Neighbor indices of atom `i` (view into the flat array)."""
        return self.neighbors[self.offsets[i] : self.offsets[i + 1]]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All stored pairs as parallel ``(i, j)`` index arrays."""
        i_idx = np.repeat(
            np.arange(self.n_atoms, dtype=np.int64), np.diff(self.offsets)
        )
        return i_idx, self.neighbors.astype(np.int64)

    def to_padded(self, pad_value: int = -1) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(n, max_neighbors)`` padded matrix plus per-row counts.

        The lane-faithful scheme (1a) iterates this layout directly: row
        = atom i, columns = neighbor slots, pad slots masked off.
        """
        counts = self.counts()
        maxn = int(counts.max()) if counts.size else 0
        padded = np.full((self.n_atoms, maxn), pad_value, dtype=np.int64)
        rows, within = _expand_ranges(np.zeros_like(counts), counts)
        padded[rows, within] = self.neighbors
        return padded, counts
