"""Dense dictionary retrieval and candidate export for an external reranker.

The index holds one embedding per dictionary entry and answers exact
Euclidean top-k queries, ties broken by the lower entry id so every
ranking is reproducible. A query costs one GEMV plus O(k·d): the
expansion ‖x‖² − 2x·q + ‖q‖² (as in FAISS ``IndexFlatL2``), with the row
norms computed once at build, gives every row an approximate squared
distance in one matrix-vector product. Only rows within a proven
rounding margin of the k-th smallest approximation, about k of them,
are rescored with the direct ``Σ(x − q)²`` and ranked. The margin bounds
the rounding error of both formulas, so the shortlist always holds the
true top k, and ids, tie order and distance bits equal a full scan with
the direct formula; an overflow makes the margin infinite, which
degrades to that full scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from icdkit.codes import IcdCode, IcdDictionary, parse_code, truncate_to_group
from icdkit.errors import InvalidFormatError
from icdkit.jsonl import read_jsonl, typed_field


@dataclass(frozen=True)
class Hit:
    entry_id: int
    code: IcdCode
    distance: float


@dataclass(frozen=True)
class RankedCandidates:
    """Retrieval result for one query: hits sorted by distance, closest first."""

    query_id: str
    hits: tuple[Hit, ...]


class EmbeddingIndex:
    """Immutable store of dictionary-entry embeddings with exact top-k search.

    Row order equals entry id order, so the index can be queried from any
    number of threads and always returns the same ranking.
    """

    def __init__(self, codes: Sequence[IcdCode], matrix: np.ndarray | Sequence[Sequence[float]]):
        # the one copy of the vectors: later writes to the caller's rows cannot reach it
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise InvalidFormatError("embedding matrix must be 2-D")
        if len(codes) != matrix.shape[0]:
            raise InvalidFormatError(f"{len(codes)} codes for {matrix.shape[0]} vectors")
        if not np.isfinite(matrix).all():
            raise InvalidFormatError("embedding matrix contains non-finite values")
        self.codes: tuple[IcdCode, ...] = tuple(codes)
        self.matrix = matrix
        self.matrix.setflags(write=False)
        # for retrieve's shortlist; einsum makes no N×d temporary, and an
        # overflow to inf here makes retrieve's margin infinite
        with np.errstate(over="ignore"):
            self.sq_norms = np.einsum("ij,ij->i", matrix, matrix)
        self.sq_norms.setflags(write=False)
        self.max_norm = float(np.sqrt(self.sq_norms.max())) if len(matrix) else 0.0

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]


def build_index(dictionary: IcdDictionary, vectors: Iterable[tuple[int, Sequence[float]]]) -> EmbeddingIndex:
    """Pair every dictionary entry with its vector from ``(entry id, vector)`` pairs and build the index.

    Every entry must have exactly one vector, and every vector the same
    number of finite components: a missing, duplicate or unknown id, a
    second dimension or a NaN/inf component raises :class:`InvalidFormatError`.
    """
    by_id: dict[int, Sequence[float]] = {}
    dim: int | None = None
    for entry_id, vector in vectors:
        if type(entry_id) is not int:
            raise InvalidFormatError(f"vector id must be int, got {entry_id!r}")
        if entry_id < 0 or entry_id >= len(dictionary):
            raise InvalidFormatError(f"vector id {entry_id} has no dictionary entry")
        if entry_id in by_id:
            raise InvalidFormatError(f"duplicate vector for entry {entry_id}")
        if dim is None:
            dim = len(vector)
            if dim == 0:
                raise InvalidFormatError("vectors must have at least one component")
        elif len(vector) != dim:
            raise InvalidFormatError(f"entry {entry_id}: expected dim {dim}, got {len(vector)}")
        by_id[entry_id] = vector
    for entry in dictionary:
        if entry.entry_id not in by_id:
            raise InvalidFormatError(f"no vector for entry {entry.entry_id} ({entry.code})")
    if not len(dictionary):
        return EmbeddingIndex((), np.zeros((0, 1)))
    # EmbeddingIndex stacks the rows and rejects non-finite components
    return EmbeddingIndex([e.code for e in dictionary], [by_id[i] for i in range(len(dictionary))])


def retrieve(
    index: EmbeddingIndex, query: Sequence[float], k: int, query_id: str = ""
) -> RankedCandidates:
    """Exact Euclidean top-k over the index, ties broken by lower entry id.

    Returns at most ``k`` hits with non-decreasing distances.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != index.dim:
        raise InvalidFormatError(f"query dim {q.shape} does not match index dim {index.dim}")
    if not np.isfinite(q).all():
        raise InvalidFormatError("query contains non-finite values")
    if k < len(index):
        # Shortlist by approx = ‖x‖² − 2x·q + ‖q‖², then rescore it exactly.
        # Margin, with u = 2**-53, r = max‖x‖ + ‖q‖ and D the true squared
        # distance: a sum of d terms, in any order (pairwise, blocked BLAS),
        # is off by at most about d·u·Σ|term| (Higham 2002, §3.1).
        # - approx: its three sums' |terms| add to at most r², and its two
        #   additions each add u·r², so |approx − D| ≤ (d+2)·u·r².
        # - exact, the direct Σ(x − q)²: one rounding per difference and per
        #   square, then a sum of d non-negative terms: |exact − D| ≤ (d+2)·u·r².
        # So |approx − exact| ≤ 2(d+2)·u·r²; eps takes c = 4, which covers
        # second-order terms, r from rounded norms and the rounding of eps
        # and thr. A product that underflows is also off by up to 2**-1075
        # (sums that underflow are exact); a row's approx and exact take 5d
        # products (2x·q counted twice), under the absolute 4(d+2)·2**-1074.
        # The k rows with approx <= T have exact <= T + eps, so every row of
        # the exact top k has approx <= T + 2·eps and is kept.
        # Overflow: approx's intermediates stay near r², a quarter of (2r)²,
        # so any overflow makes eps inf (or thr NaN), and ~(approx > thr)
        # then keeps every row, NaN rows too: a full rescan.
        with np.errstate(over="ignore", invalid="ignore"):
            qq = q @ q
            approx = index.sq_norms - 2.0 * (index.matrix @ q) + qq
            two_r = 2.0 * (index.max_norm + float(np.sqrt(qq)))
            eps = (index.dim + 2) * (2.0**-53 * (two_r * two_r) + 2.0**-1072)
            thr = np.partition(approx, k - 1)[k - 1] + 2.0 * eps
            cand = np.flatnonzero(~(approx > thr))
    else:
        cand = np.arange(len(index))
    diff = index.matrix[cand] - q
    dist_sq = (diff * diff).sum(axis=1)
    # cand ascends by entry id, so a stable argsort keeps id order among exact ties
    order = np.argsort(dist_sq, kind="stable")[:k]
    hits = tuple(
        Hit(int(cand[i]), index.codes[cand[i]], float(np.sqrt(dist_sq[i])))
        for i in order
    )
    return RankedCandidates(query_id=query_id, hits=hits)


def _code_hit(cands: RankedCandidates, gold: IcdCode, k: int, mode: str) -> bool:
    codes = [hit.code for hit in cands.hits]
    if mode == "relaxed":
        codes = [truncate_to_group(code) for code in codes]
        gold = truncate_to_group(gold)
    unique = list(dict.fromkeys(codes))
    return gold in unique[:k]


def acc_at_k(
    queries: Iterable[tuple[RankedCandidates, IcdCode]], k: int, mode: str = "strict"
) -> float:
    """Fraction of queries whose gold code appears among the top-k codes.

    Each query is its ranked candidates and its gold code. Ranks are
    counted over unique codes (synonym entries collapsed), with
    deduplication applied after truncation in relaxed mode so two
    subcodes of one group occupy a single rank.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"mode must be 'strict' or 'relaxed', got {mode!r}")
    total = 0
    hits = 0
    for cands, gold in queries:
        total += 1
        hits += _code_hit(cands, gold, k, mode)
    return hits / total if total else 0.0


_JSON_NUMBERS = frozenset({int, float})


def as_vector(values: object) -> np.ndarray:
    """One embedding, a JSON list of numbers, as a float64 array; raises
    ValueError for anything else, a string or ``true`` component too."""
    # np.array converts "1.0" and True, so each component's type is tested;
    # issuperset stops at the first other type and builds no set. The JSON
    # reader admits no NaN or infinity, and build_index and retrieve reject them.
    if type(values) is not list or not _JSON_NUMBERS.issuperset(map(type, values)):
        raise ValueError("vector must be a flat list of numbers")
    return np.array(values, dtype=np.float64)


def load_embeddings_jsonl(path: str | Path) -> list[tuple[int, np.ndarray]]:
    """Read ``{"id": int, "vector": [floats]}`` rows from a JSONL file."""
    return read_jsonl(path, lambda row: (typed_field(row, "id", int), as_vector(row["vector"])))


def write_embeddings_jsonl(path: str | Path, rows: Iterable[tuple[int, Sequence[float]]]) -> None:
    """Write embedding rows with 9 significant digits per component, enough
    for a bit-stable round-trip of 32-bit precision values."""
    with open(path, "w", encoding="utf-8") as handle:
        for entry_id, vector in rows:
            comps = ", ".join(format(float(x), ".9g") for x in vector)
            handle.write('{"id": %d, "vector": [%s]}\n' % (int(entry_id), comps))


def export_candidates(
    cands: RankedCandidates, dictionary: IcdDictionary, mention: str
) -> dict:
    """Shape one query's candidates as a reranker-facing record keyed by its query id.

    Ranks are 1-based in retrieval order; each candidate carries the
    dictionary name behind its entry so the reranker sees surface forms,
    not just codes.
    """
    return {
        "mention": mention,
        "mention_id": cands.query_id,
        "candidates": [
            {
                "rank": rank,
                "code": hit.code,
                "name": dictionary.entry(hit.entry_id).name,
                "distance": hit.distance,
            }
            for rank, hit in enumerate(cands.hits, start=1)
        ],
    }


def baseline_selection(candidate_records: Iterable[Mapping]) -> list[dict]:
    """The no-reranker baseline: select the rank-1 candidate of every record."""
    return [{"mention_id": rec["mention_id"], "selected_rank": 1} for rec in candidate_records]


def import_selection(
    candidate_records: Iterable[Mapping],
    selections: Iterable[Mapping],
) -> dict[str, IcdCode]:
    """Resolve reranker selections against exported candidate records.

    Each selection must name an exported mention and a 1-based rank
    within its candidate list; anything else raises :class:`InvalidFormatError`.
    """
    by_mention = {rec["mention_id"]: rec["candidates"] for rec in candidate_records}
    return {selection["mention_id"]: parse_code(selected_candidate(by_mention, selection)["code"])
            for selection in selections}


def selected_candidate(by_mention: Mapping[str, Sequence[Mapping]], selection: Mapping) -> Mapping:
    """The candidate ``selection`` names; an unknown mention or a rank off the list raises."""
    rank = typed_field(selection, "selected_rank", int)
    mention_id = selection["mention_id"]
    if mention_id not in by_mention:
        raise InvalidFormatError(f"selection references unknown mention_id {mention_id!r}")
    candidates = by_mention[mention_id]
    if rank < 1 or rank > len(candidates):
        raise InvalidFormatError(f"{mention_id}: selected rank {rank} of {len(candidates)} candidates")
    return candidates[rank - 1]
