"""Dense dictionary retrieval, and an external reranker's boundary: candidates out, one pick in.

The index holds one embedding per dictionary entry and answers exact
Euclidean top-k queries, ties broken by the lower entry id so every
ranking is reproducible. ``retrieve_batch`` checks each block of up to
``BATCH`` queries and gives every row of it an approximate squared
distance to every index row in one GEMM: the expansion ‖x‖² − 2x·q + ‖q‖²
(as in FAISS ``IndexFlatL2``), with the row norms computed once at build,
whose peak is about 40 MB per 256 queries at 20 060 rows. It then calls
``retrieve`` once per row, which costs O(k·d) more: only rows within a
proven rounding margin of the query's k-th smallest approximation, about
k of them, are rescored with the direct ``Σ(x − q)²`` and ranked.
``retrieve`` called alone ranks a one-row block the same way. The margin
bounds the rounding error of both formulas, so the shortlist always holds
the true top k, and ids, tie order and distance bits equal a full scan
with the direct formula; an overflow makes the margin infinite, which
degrades to that full scan.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import pickle
import re
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
import orjson

from icdkit import jsonl
from icdkit.codes import IcdCode, IcdDictionary, truncate_to_group
from icdkit.coding import import_selection
from icdkit.errors import InvalidFormatError
from icdkit.jsonl import parse_json, read_lines, typed_field, write_file

# import_selection, in the numpy-free coding module, is kept here under its old name
__all__ = ["BATCH", "CACHE_DIR", "CAN_SPLIT", "RACY_NS", "SPLIT_BYTES", "EmbeddingIndex", "Hit", "RankedCandidates",
           "acc_at_k", "as_vector", "build_index", "export_candidates", "import_selection", "load_embeddings_jsonl",
           "load_index", "matrix_index", "retrieve", "retrieve_batch"]

# An embeddings file this large is parsed by two processes: on 2 CPUs, from 16 MiB up, the split takes
# 0.6-0.7 of a one-process read with the other CPU free, 1.0-1.1 with it busy (scripts/time_split_load.py).
SPLIT_BYTES = 32 * 2**20
# Whether a file may be split at all. CPython 3.12 deprecates os.fork in a
# process with more than one thread, and importing numpy starts OpenBLAS's
# thread pool, so there every split would warn; it reads in one process.
CAN_SPLIT = hasattr(os, "fork") and sys.version_info < (3, 12)
# Beside an embeddings JSONL, as __pycache__ is beside sources (PEP 3147),
# this directory keeps its parsed matrix: see load_index.
CACHE_DIR = "__icdkit_cache__"
# A stat record vouches for a file only if the file's ctime precedes the
# recorded stat by more than this (git's "racily clean" rule): a write in
# the same timestamp tick leaves the stat unchanged. FAT's ticks are 2 s.
RACY_NS = 2 * 10**9
_RECORD = re.compile(rb"(-?\d+(?: -?\d+){4}) (-?\d+) ([0-9a-f]{64})\n")
# Queries ranked by one GEMM: a block's approximations are BATCH × rows
# float64, about 40 MB at the paper's 20 060 rows.
BATCH = 256


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
        self._take(codes, np.array(matrix, dtype=np.float64))

    @classmethod
    def _adopt(cls, codes: Sequence[IcdCode], matrix: np.ndarray) -> EmbeddingIndex:
        """The index over ``matrix`` itself, a float64 array that nothing else holds."""
        index = cls.__new__(cls)
        index._take(codes, matrix)
        return index

    def _take(self, codes: Sequence[IcdCode], matrix: np.ndarray) -> None:
        if matrix.ndim != 2:
            raise InvalidFormatError("embedding matrix must be 2-D")
        if len(codes) != matrix.shape[0]:
            raise InvalidFormatError(f"{len(codes)} codes for {matrix.shape[0]} vectors")
        # for retrieve's shortlist; einsum makes no N×d temporary, and an
        # overflow to inf here makes retrieve's margin infinite
        with np.errstate(over="ignore"):
            self.sq_norms = np.einsum("ij,ij->i", matrix, matrix)
        # a NaN or inf component makes its row's norm NaN or inf: only then scan the matrix
        if not np.isfinite(self.sq_norms).all() and not np.isfinite(matrix).all():
            raise InvalidFormatError("embedding matrix contains non-finite values")
        self.sq_norms.setflags(write=False)
        self.codes: tuple[IcdCode, ...] = tuple(codes)
        self.matrix = matrix
        self.matrix.setflags(write=False)
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
    rows: list[Sequence[float] | None] = [None] * len(dictionary)
    dim: int | None = None
    for entry_id, vector in vectors:
        if type(entry_id) is not int:
            raise InvalidFormatError(f"vector id must be int, got {entry_id!r}")
        if entry_id < 0 or entry_id >= len(dictionary):
            raise InvalidFormatError(f"vector id {entry_id} has no dictionary entry")
        if rows[entry_id] is not None:
            raise InvalidFormatError(f"duplicate vector for entry {entry_id}")
        if dim is None:
            dim = len(vector)
            if dim == 0:
                raise InvalidFormatError("vectors must have at least one component")
        elif len(vector) != dim:
            raise InvalidFormatError(f"entry {entry_id}: expected dim {dim}, got {len(vector)}")
        rows[entry_id] = vector
    for entry_id, entry in enumerate(dictionary):
        if rows[entry_id] is None:
            raise InvalidFormatError(f"no vector for entry {entry_id} ({entry.code})")
    if not len(dictionary):
        return EmbeddingIndex((), np.zeros((0, 1)))
    # EmbeddingIndex stacks the rows and rejects non-finite components
    return EmbeddingIndex([e.code for e in dictionary], rows)


def _approximate(
    index: EmbeddingIndex, queries: Sequence[Sequence[float]] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block of ``queries`` as checked float64 rows, each row's approximate squared
    distance to every index row, from one GEMM, and each row's shortlist margin eps."""
    block = np.asarray(queries, dtype=np.float64)
    if block.ndim != 2 or block.shape[1] != index.dim:
        raise InvalidFormatError(f"query dim {block.shape[1:]} does not match index dim {index.dim}")
    if not np.isfinite(block).all():
        raise InvalidFormatError("query contains non-finite values")
    # approx = ‖x‖² − 2x·q + ‖q‖², the shortlist that retrieve rescores exactly.
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
    # Overflow: approx's intermediates stay near r², a quarter of (2r)²,
    # so any overflow makes eps inf (or retrieve's thr NaN).
    with np.errstate(over="ignore", invalid="ignore"):
        qq = np.einsum("ij,ij->i", block, block)
        approx = block @ index.matrix.T  # in place below: one block-sized array
        approx *= -2.0
        approx += index.sq_norms
        approx += qq[:, None]
        two_r = 2.0 * (index.max_norm + np.sqrt(qq))
        eps = (index.dim + 2) * (2.0**-53 * (two_r * two_r) + 2.0**-1072)
    return block, approx, eps


def retrieve(
    index: EmbeddingIndex, query: Sequence[float], k: int, query_id: str = "", *,
    _approx: tuple[np.ndarray, np.float64] | None = None,
) -> RankedCandidates:
    """Exact Euclidean top-k over the index, ties broken by lower entry id.

    Returns at most ``k`` hits with non-decreasing distances.
    """
    # retrieve_batch passes a checked row with its approximations and eps
    if _approx is None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        block, approx, eps = _approximate(index, [query])
        query, _approx = block[0], (approx[0], eps[0])
    approx, eps = _approx
    with np.errstate(over="ignore", invalid="ignore"):
        if k < len(index):
            # The k rows with approx <= T have exact <= T + eps, so every row
            # of the exact top k has approx <= T + 2·eps and is kept. An inf
            # eps or a NaN thr keeps every row, NaN rows too: a full rescan.
            thr = np.partition(approx, k - 1)[k - 1] + 2.0 * eps
            cand = np.flatnonzero(~(approx > thr))
        else:
            cand = np.arange(len(index))
        diff = index.matrix[cand] - query
        dist_sq = (diff * diff).sum(axis=1)
    # cand ascends by entry id, so a stable argsort keeps id order among exact ties
    order = np.argsort(dist_sq, kind="stable")[:k]
    hits = tuple(Hit(int(cand[i]), index.codes[cand[i]], float(np.sqrt(dist_sq[i]))) for i in order)
    return RankedCandidates(query_id=query_id, hits=hits)


def retrieve_batch(
    index: EmbeddingIndex, queries: Sequence[Sequence[float]] | np.ndarray, k: int,
    query_ids: Sequence[str],
) -> list[RankedCandidates]:
    """:func:`retrieve` for each of ``queries`` in order, the i-th with query
    id ``query_ids[i]``. Each block of ``BATCH`` queries is checked and takes
    its approximations from one GEMM, then each of its rows is one
    :func:`retrieve` call; every query's hits are those it has alone.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(query_ids) != len(queries):
        raise ValueError(f"{len(query_ids)} query ids for {len(queries)} queries")
    ranked = []
    for start in range(0, len(queries), BATCH):
        block, approx, eps = _approximate(index, queries[start:start + BATCH])
        ranked += [retrieve(index, query, k, query_ids[start + row], _approx=(approx[row], eps[row]))
                   for row, query in enumerate(block)]
    return ranked


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
    """Read ``{"id": int, "vector": [floats]}`` rows from a JSONL file.

    Where ``CAN_SPLIT``, a file of at least ``SPLIT_BYTES`` is parsed by two
    processes, each streaming it whole through :func:`read_lines`: this one
    parses the even non-blank rows and a forked worker the odd ones, which
    it pickles to this one through a pipe. On any fault (a bad row in either
    share, a lost worker or a stream it cut short, no pipe or process to be
    had) the whole file is read again in this process, so the pairs, their
    float bits and the error raised are those of a one-process read. While
    SIGCHLD is ignored, every file is read in one process.
    """
    # an ignored SIGCHLD (inherited across exec) has the kernel reap a worker before it can be waited for
    if not CAN_SPLIT or signal.getsignal(signal.SIGCHLD) is signal.SIG_IGN or os.path.getsize(path) < SPLIT_BYTES:
        return read_lines(path, _embedding_row)
    pid = rows = None
    try:  # no pipe or process to be had reads again below, like a bad row
        read_fd, write_fd = os.pipe()
        with os.fdopen(read_fd, "rb") as pipe, os.fdopen(write_fd, "wb") as sink:
            pid = os.fork()
            if pid == 0:
                try:  # the worker never returns into its caller's code
                    pipe.close()
                    pickle.dump(read_lines(path, _every_other(1))[1::2], sink, pickle.HIGHEST_PROTOCOL)
                    sink.close()  # os._exit flushes no buffer
                finally:
                    os._exit(0)
            sink.close()  # so a worker that dies ends the receive
            evens = read_lines(path, _every_other(0))
            evens[1::2] = pickle.load(pipe)  # a short stream fails here
            rows = evens
    except Exception:
        pass  # an interrupt or exit is never retried
    finally:
        if pid:
            if rows is None:  # a worker still parsing is not waited for
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return read_lines(path, _embedding_row) if rows is None else rows


def _embedding_row(line: str) -> tuple[int, np.ndarray]:
    row = parse_json(line)
    return typed_field(row, "id", int), as_vector(row["vector"])


def _every_other(first: int) -> Callable[[str], tuple[int, np.ndarray] | None]:
    """:func:`_embedding_row` of non-blank rows ``first``, ``first + 2``, ..., None for the others."""
    rows = itertools.count(-first)
    return lambda line: None if next(rows) % 2 else _embedding_row(line)


def load_index(path: str | Path, dictionary: IcdDictionary) -> EmbeddingIndex:
    """The index of ``dictionary`` over the embeddings at ``path``: a ``.npy``
    matrix (see :func:`matrix_index`), or else JSONL rows.

    A JSONL file is first looked up in ``CACHE_DIR`` beside it, under the
    SHA-256 of the rules that parse it (this module's and ``jsonl``'s
    sources, orjson's version) and of the SHA-256 of its bytes, as PEP
    552's hash-based pycs are. The file is not read for its digest if its
    stat record, ``CACHE_DIR/<file name>.stat``, holds the file's present
    (device, inode, size, mtime, ctime) and that ctime precedes the
    wall-clock time of the recorded stat by more than ``RACY_NS``;
    otherwise the file is hashed. An entry that :func:`matrix_index`
    accepts is a hit. Anything else is a miss: :func:`load_embeddings_jsonl`
    and :func:`build_index` run, and raise what they raise, naming the
    file. Only an index they build is saved, whole or not at all, and it
    replaces the file name's other entries and killed writers' temps. A
    hashed hit or a save rewrites the record. A directory that cannot be
    written is parsed every time.
    """
    path = Path(path)
    if path.suffix == ".npy":
        return matrix_index(path, dictionary)
    cache = None
    record = path.parent / CACHE_DIR / f"{path.name}.stat"
    try:
        # a write after the stat gets a ctime no earlier than stamped, less a clock tick
        stamped, before = time.time_ns(), _stamp(path)
        digest = _recorded_digest(record, before)
        hashed = digest is None
        if hashed:
            digest = _file_digest(path)
        cache = path.parent / CACHE_DIR / f"{path.name}.{_entry_key(digest)}.npy"
        index = matrix_index(cache, dictionary)
    except (OSError, ValueError):
        pass  # a miss
    else:
        if hashed:
            _save_record(record, before, stamped, digest)
        return index
    vectors = load_embeddings_jsonl(path)
    try:
        index = build_index(dictionary, vectors)
    except InvalidFormatError as exc:
        # build_index sees pairs, not lines: the file is named here, the entry id in the message
        raise InvalidFormatError(f"{path}: {exc}") from exc
    try:
        # a file rewritten while it was parsed may not match the key
        if cache is not None and _stamp(path) == before:
            _save_matrix(cache, path.name, index.matrix)
            _save_record(record, before, stamped, digest)
    except OSError:
        pass  # a read-only directory or a full disk
    return index


def matrix_index(path: str | Path, dictionary: IcdDictionary) -> EmbeddingIndex:
    """The index of ``dictionary`` over the ``.npy`` matrix at ``path``, row
    *i* for entry id *i*: a finite 2-D float array with one row per entry and
    at least one column, whose header is checked against the file's size
    before its data is read, never unpickled, into an array the index keeps
    without a copy. Any other file raises :class:`InvalidFormatError` naming
    it and what it holds."""
    with open(path, "rb") as handle:
        try:  # read_array would allocate what any header claims before reading it
            version = np.lib.format.read_magic(handle)
            if version not in ((1, 0), (2, 0), (3, 0)):  # 3.0 is 2.0 with a UTF-8 header
                raise ValueError(f"unsupported .npy format version {version}")
            shape, fortran_order, dtype = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                                           else np.lib.format.read_array_header_2_0)(handle)
            if os.fstat(handle.fileno()).st_size - handle.tell() != math.prod(shape) * dtype.itemsize:
                raise ValueError(f"the bytes after the header are not those of {dtype} of shape {shape}")
        except ValueError as exc:  # cut short, a pickle, an object array
            raise InvalidFormatError(f"{path}: cannot read a .npy array: {exc}") from exc
        if len(shape) != 2 or dtype.kind != "f" or shape[0] != len(dictionary) or not shape[1]:
            raise InvalidFormatError(f"{path}: expected a 2-D float array of {len(dictionary)} rows, one per "
                                     f"dictionary entry, found {dtype} of shape {shape}")
        matrix = np.fromfile(handle, dtype, math.prod(shape)).reshape(shape, order="F" if fortran_order else "C")
    try:
        return EmbeddingIndex._adopt([entry.code for entry in dictionary], matrix.astype(np.float64, copy=False))
    except InvalidFormatError as exc:  # a NaN or an infinity
        raise InvalidFormatError(f"{path}: {exc}") from exc


def _stamp(path: Path) -> tuple[int, ...]:
    """What any write to ``path`` changes: its device, inode, size, mtime and ctime."""
    st = os.stat(path)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:  # in chunks: hashlib.file_digest is 3.11+
        while chunk := handle.read(2**20):
            digest.update(chunk)
    return digest.hexdigest()


def _entry_key(file_digest: str) -> str:
    """The cache key of a file of SHA-256 ``file_digest``, under the parse rules of this source."""
    key = hashlib.sha256(orjson.__version__.encode())
    for source in (__file__, jsonl.__file__):
        key.update(Path(source).read_bytes())
    key.update(file_digest.encode())
    return key.hexdigest()


def _recorded_digest(record: Path, stamp: tuple[int, ...]) -> str | None:
    """The digest in ``record`` if it was recorded for a file of stat
    ``stamp`` whose ctime precedes the recording by more than ``RACY_NS``."""
    try:
        match = _RECORD.fullmatch(record.read_bytes())
    except OSError:
        return None
    valid = match and tuple(map(int, match[1].split())) == stamp and stamp[-1] < int(match[2]) - RACY_NS
    return match[3].decode() if valid else None


def _save_record(record: Path, stamp: tuple[int, ...], stamped: int, digest: str) -> None:
    """Record ``digest`` for the file of stat ``stamp``, taken just after
    wall-clock time ``stamped``, unless the record cannot be written."""
    line = f"{' '.join(map(str, stamp))} {stamped} {digest}\n".encode()
    try:
        write_file(record, lambda handle: handle.write(line))
    except OSError:
        pass  # a read-only directory or a full disk


def _save_matrix(cache: Path, source: str, matrix: np.ndarray) -> None:
    """Write ``matrix`` to ``cache`` by a rename, then remove the file
    ``source``'s entries under other keys and the temps of its entries and
    record, which a killed writer leaves; a live writer whose temp goes
    fails its rename, as on a full disk."""
    cache.parent.mkdir(exist_ok=True)
    write_file(cache, lambda handle: np.lib.format.write_array(handle, matrix, allow_pickle=False))
    stale = re.compile(re.escape(source) + r"\.(?:[0-9a-f]{64}\.npy(?:\.[0-9a-f]{16}\.tmp)?"
                                           r"|stat\.[0-9a-f]{16}\.tmp)")
    for entry in cache.parent.iterdir():
        if entry != cache and stale.fullmatch(entry.name):
            entry.unlink(missing_ok=True)


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
