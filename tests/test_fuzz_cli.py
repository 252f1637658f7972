"""One-input mutations of the demo workspace, against the CLI's exit contract.

Each example copies a demo workspace that every config of ``RUNS`` has run
over once, so that its ``__icdkit_cache__`` entry and stat record exist,
changes one of its files, and runs every config again through ``cli.main``
in process:

- ``main`` never raises and returns 0, 2 or 3;
- an exit 2 prints ``config error: ...``;
- an exit 3 names the mutated file with ``:line``, unless a check across
  files or rows, listed in ``ELSEWHERE``, reports the mutation otherwise;
- a mutated cache entry or stat record changes no output: every run exits 0
  and writes what the runs over the unmutated workspace wrote.
"""

import contextlib
import io
import json
import re
import shutil
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from icdkit.cli import main
from icdkit.retrieval import CACHE_DIR
from test_golden import RUNS, demo_script
from test_metamorphic import written_digests

# bytes a real file gains by accident: line breaks, a BOM, a NUL, a tab, a BRAT fragment separator
INSERTS = (b"\r", b"\n", b"\r\n", b"\xef\xbb\xbf", b"\x00", b"\t", b";")
ODD_VALUES = (None, [], {}, 2**64, "\u0000", "x" * 300)
# what a field of a TSV, .ann or stat record line can become
ODD_FIELDS = ("", " ", "0", "-1", "007", "1e3", "99999999999999999999", "J00", "ICD10:XX", "T99", "анемия",
              "x" * 300)

# (mutated file, exit 3 message that does not name it with :line), each a
# regex, the first over the file's path in the workspace and the second over
# the whole message; a check across files or rows reports what it finds here:
ELSEWHERE = (
    # a BRAT offset counts the .txt, but a span is checked on its .ann line
    (r"corpus/(rec\d+)\.txt", r"\S*/corpus/{0}\.ann:\d+: .*"),
    # the dictionary files, and the configs that name them, set the entry ids
    # that the embeddings' vectors belong to
    (r"(?:dictionary|synonyms)\.tsv|(?:index|retrieve|export-candidates)\.json",
     r"\S*/embeddings\.jsonl(?::\d+: vector id \d+ has no dictionary entry|: no vector for entry \d+ \(\S+\))"),
    # the gold file names the documents a prediction may refer to
    (r"gold_codes\.jsonl", r"\S*/code_predictions\.jsonl:\d+: prediction references unknown doc_id .*"),
    # a selection refers to the mention ids that export-candidates took from the queries
    (r"queries\.jsonl", r"\S*/selection\.jsonl:\d+: selection references unknown mention_id .*"),
    # an entry id that no row holds has no line to name
    (r"(embeddings)\.jsonl", r"\S*/{0}\.jsonl: no vector for entry \d+ \(\S+\)"),
)


@pytest.fixture(scope="module")
def ran_demo(tmp_path_factory):
    """A demo workspace that every config of ``RUNS`` has run over, with its
    cache but not its outputs, and the digests of the outputs."""
    root = tmp_path_factory.mktemp("fuzz") / "demo"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "argv", ["make_demo_data.py", "--out", str(root)])
        demo_script().main()
    for name, command in RUNS:
        assert main([command, "--config", str(root / f"{name}.json")]) == 0, name
    assert any((root / CACHE_DIR).glob("*.npy")) and any((root / CACHE_DIR).glob("*.stat"))
    digests = written_digests(root)
    shutil.rmtree(root / "out")
    return root.resolve(), digests


def _inputs(root):
    """Every file under ``root``, relative to it, in a fixed order."""
    return sorted(path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file())


def _json_paths(value, prefix=()):
    """The path of every value nested in a parsed JSON value, itself first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _json_paths(item, prefix + (key,))


def _json_edit(draw, text: str) -> str:
    """``text``, one JSON value, with one nested value swapped for an odd one or one key deleted."""
    value = json.loads(text)
    path = draw(st.sampled_from(list(_json_paths(value))))
    if not path:
        return json.dumps(draw(st.sampled_from(ODD_VALUES)))
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(ODD_VALUES))
    return json.dumps(value, ensure_ascii=False)


@st.composite
def mutations(draw, root):
    """A (file name, mutation name, mutated bytes) triple for one input under ``root``."""
    name = draw(st.sampled_from(_inputs(root)))
    data = (root / name).read_bytes()
    kinds = ["cut", "flip", "insert"]
    if not name.endswith(".npy"):
        kinds += ["repeat-line", "delete-line"]
    if name.endswith((".json", ".jsonl")):
        kinds += ["json"]
    if name.endswith((".tsv", ".ann", ".stat")):
        kinds += ["field"]
    kind = draw(st.sampled_from(kinds))
    at = draw(st.integers(0, len(data) - 1))
    if kind == "cut":
        return name, kind, data[:at]
    if kind == "flip":
        return name, kind, data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if kind == "insert":
        return name, kind, data[:at] + draw(st.sampled_from(INSERTS)) + data[at:]
    lines = data.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "repeat-line":
        return name, kind, b"".join(lines[:i + 1] + lines[i:])
    if kind == "delete-line":
        return name, kind, b"".join(lines[:i] + lines[i + 1:])
    if name.endswith(".json"):  # a config: one JSON value over many lines
        return name, kind, _json_edit(draw, data.decode("utf-8")).encode("utf-8")
    body, end = re.fullmatch(rb"(.*?)(\r?\n?)", lines[i], re.S).groups()
    text = body.decode("utf-8")
    if kind == "json":
        text = _json_edit(draw, text)
    else:  # a field of a tab-separated line, or a word of such a field
        fields = text.split("\t")
        j = draw(st.integers(0, len(fields) - 1))
        words = fields[j].split(" ")
        words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(ODD_FIELDS))
        fields[j] = " ".join(words)
        text = "\t".join(fields)
    return name, kind, b"".join(lines[:i] + [text.encode("utf-8") + end] + lines[i + 1:])


def _run_all(root) -> list[tuple[str, int, str]]:
    """(config name, exit code, stderr) of every config of ``RUNS`` over ``root``."""
    outcomes = []
    for name, command in RUNS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(root / f"{name}.json")])
        outcomes.append((name, code, err.getvalue()))
    return outcomes


def _names_elsewhere(name: str, err: str) -> bool:
    for mutated, reported in ELSEWHERE:
        m = re.fullmatch(mutated, name)
        if m and re.fullmatch("error: " + reported.format(*m.groups()) + "\n", err):
            return True
    return False


@settings(derandomize=True, database=None, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_one_input_mutation_keeps_the_exit_contract(ran_demo, tmp_path_factory, data):
    pristine, digests = ran_demo
    name, kind, mutant = data.draw(mutations(pristine), label="mutation")
    work = tmp_path_factory.mktemp("mutant") / "demo"
    shutil.copytree(pristine, work)
    target = work / name
    target.write_bytes(mutant)
    try:
        outcomes = _run_all(work)
        mutated = re.escape(str(target))
        for config, code, err in outcomes:
            where = f"{config} after {kind} of {name}: {err!r}"
            assert code in (0, 2, 3), where
            assert "Traceback" not in err, where
            if code == 2:
                assert err.startswith("config error: "), where
            elif code == 3:
                assert re.match(f"error: {mutated}:[0-9]+: ", err) or _names_elsewhere(name, err), where
        if name.startswith(CACHE_DIR + "/"):
            assert [code for _, code, _ in outcomes] == [0] * len(RUNS), (kind, name, outcomes)
            assert written_digests(work) == digests, (kind, name)
    finally:
        shutil.rmtree(work.parent)
