import copy
import functools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentcot import tasks, vocab
from latentcot.layouts import build_interleaved, build_prompt, build_student
from latentcot.tasks import (CurationConfig, DatasetRecord, ImageSeg, TextSeg,
                             build_corpus, corrupt_sample, count_symbol, curate,
                             generate_count_task, generate_lookup_task,
                             generate_raw, make_count_sample,
                             make_lookup_sample, read_dataset,
                             stage1_filter, stage2_filter,
                             strong_judge_answer, weak_candidates,
                             weak_judge_answer, write_dataset)


def brute_force_removals(grid, steps):
    """Independent simulator: a cell is blanked iff any step matches it."""
    states = []
    removed = set()
    for kind, arg in steps:
        for i, row in enumerate(grid):
            for j, s in enumerate(row):
                if (i, j) in removed:
                    continue
                if kind == "sym" and s == arg:
                    removed.add((i, j))
                elif kind == "row" and i == arg:
                    removed.add((i, j))
                elif kind == "col" and j == arg:
                    removed.add((i, j))
        states.append([[vocab.EMPTY if (i, j) in removed else grid[i][j]
                        for j in range(len(grid[0]))] for i in range(len(grid))])
    return states


GRID4 = [
    ["a", "b", "a", "c"],
    ["b", "a", "c", "a"],
    ["c", "c", "b", "b"],
    ["a", "b", "a", "c"],
]


def _images(sample):
    return [seg.grid for seg in sample.cot if isinstance(seg, ImageSeg)]


def _observed(tokens):
    """Whether each token lies between observation delimiters."""
    inside, out = False, []
    for tok in tokens:
        if tok in (vocab.OBS_START, vocab.OBS_END):
            inside = tok == vocab.OBS_START
        out.append(inside and tok != vocab.OBS_START)
    return out


def _observations(sample):
    """(cot index, observed tokens) of each text segment that observes."""
    out = []
    for i, seg in enumerate(sample.cot):
        if isinstance(seg, TextSeg):
            observed = [t for t, o in zip(seg.tokens, _observed(seg.tokens)) if o]
            if observed:
                out.append((i, observed))
    return out


def test_lookup_sample_by_construction():
    grid = [
        ["a", "b", "e", "f"],
        ["c", "d", "g", "h"],
        ["e", "f", "a", "b"],
        ["g", "h", "c", "d"],
    ]
    s = make_lookup_sample(grid, (0, 0, 1, 1), (0, 1))
    assert s.gold == ["b"]
    assert s.cot[2].tokens == ["crop", "shows", vocab.OBS_START, "a", "b", "c", "d",
                               vocab.OBS_END]
    assert _observations(s) == [(2, ["a", "b", "c", "d"])]
    assert _images(s) == [[["a", "b"], ["c", "d"]]]


def test_lookup_degenerate_single_cell_crop():
    grid = [["a", "b"], ["c", "d"]]
    s = make_lookup_sample(grid, (1, 1, 1, 1), (1, 1))
    assert s.gold == ["d"]
    assert _images(s) == [[["d"]]]


def test_aux_crop_matches_question_grid():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = generate_lookup_task(rng)
        (crop,) = [seg for seg in s.cot if isinstance(seg, ImageSeg)]
        r0, c0, r1, c1 = crop.bbox
        qr, qc = s.question.cell
        assert r0 <= qr <= r1 and c0 <= qc <= c1
        assert crop.grid == [row[c0:c1 + 1] for row in s.question_grid[r0:r1 + 1]]


def test_pooled_pool_is_chance_level_for_weak_judge():
    grid = [
        ["a", "b", "e", "e"],
        ["c", "d", "e", "e"],
        ["f", "f", "g", "g"],
        ["f", "f", "g", "g"],
    ]
    s = make_lookup_sample(grid, (0, 0, 1, 1), (0, 0))
    assert weak_judge_answer(s) is None
    assert weak_candidates(s) == {"a", "b", "c", "d"}


def test_count_simple_symbol_removal():
    grid = [["a", "b"], ["a", "a"], ["b", "a"]]
    # 4 a's and 2 b's; removing all b leaves count a = 4
    s = make_count_sample(grid, [("sym", "b")], "a")
    assert s.gold == ["4"]
    assert s.cot[2].tokens == ["now", vocab.OBS_START, "4", vocab.OBS_END]
    assert _observations(s) == [(2, ["4"])]


def test_count_remove_everything_boundary():
    grid = [["a", "b"], ["b", "a"]]
    s = make_count_sample(grid, [("sym", "a"), ("sym", "b")], "a")
    assert s.gold == ["0"]


def test_count_matches_brute_force_simulator():
    rng = np.random.default_rng(1)
    for _ in range(25):
        s = generate_count_task(rng)
        steps = s.question.steps
        expect = brute_force_removals(s.question_grid, steps)
        shown = [seg.grid for seg in s.cot if isinstance(seg, ImageSeg)]
        assert shown == expect
        assert s.gold == [str(sum(row.count(s.question.target) for row in expect[-1]))]


def test_observation_spans_follow_their_images():
    # each observation states what the image right before it shows: a
    # lookup's crop cells, a count step's target count
    rng = np.random.default_rng(2)
    for _ in range(10):
        for s in (generate_lookup_task(rng), generate_count_task(rng)):
            observations = _observations(s)
            assert len(observations) == len(_images(s))
            for i, tokens in observations:
                shown = s.cot[i - 1]
                assert isinstance(shown, ImageSeg)
                if s.family == "lookup":
                    assert tokens == [x for row in shown.grid for x in row]
                else:
                    assert tokens == [vocab.digit(count_symbol(shown.grid, s.question.target))]
            if s.family == "count":
                assert observations[-1][1] == s.gold


def test_stage1_keeps_pool_hidden_sample():
    rng = np.random.default_rng(3)
    s = generate_lookup_task(rng)
    while weak_judge_answer(s) is not None:
        s = generate_lookup_task(rng)
    assert stage1_filter(s)


def test_stage1_drops_pooled_solvable_sample():
    grid = [["a", "a", "b", "c"],
            ["a", "a", "d", "e"],
            ["f", "g", "h", "a"],
            ["b", "c", "d", "e"]]
    s = make_lookup_sample(grid, (0, 0, 1, 1), (0, 0))
    assert weak_judge_answer(s) == "a"
    assert not stage1_filter(s)


def test_stage1_abstention_counts_as_incorrect():
    s = make_lookup_sample(GRID4, (0, 0, 1, 1), (0, 0))
    assert weak_judge_answer(s) is None
    assert stage1_filter(s)


def test_stage2_keeps_uncorrupted_drops_corrupted():
    rng = np.random.default_rng(4)
    s = generate_lookup_task(rng)
    assert stage2_filter(s)
    bad = corrupt_sample(s, rng)
    assert not stage2_filter(bad)


def test_stage2_drops_empty_crop():
    s = make_lookup_sample(GRID4, (0, 0, 1, 1), (0, 0))
    s.cot[1].grid = []
    assert strong_judge_answer(s) is None
    assert not stage2_filter(s)


def test_corrupted_count_sample_dropped():
    rng = np.random.default_rng(5)
    s = generate_count_task(rng)
    bad = corrupt_sample(s, rng)
    assert not stage2_filter(bad)


def test_curated_set_soundness():
    cfg = CurationConfig(sample_count=300, seed=11)
    records, stats = build_corpus(cfg)
    assert stats["curated"] > 0
    for rec in records:
        s = rec.sample
        assert not s.corrupted
        assert stage1_filter(s) and stage2_filter(s)


def test_all_corrupted_samples_excluded():
    cfg = CurationConfig(sample_count=300, seed=12)
    raw = generate_raw(cfg)
    assert any(s.corrupted for s in raw)
    records, _ = curate(raw)
    assert all(not rec.sample.corrupted for rec in records)


def test_generation_deterministic_per_seed(tmp_path):
    cfg = CurationConfig(sample_count=120, seed=13)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(build_corpus(cfg)[0], a)
    write_dataset(build_corpus(cfg)[0], b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("field, value", [
    ("sample_count", 0), ("corrupt_fraction", 3.0), ("corrupt_fraction", np.nan),
    ("lookup_fraction", -0.1), ("lookup_fraction", np.nan),
])
def test_curation_config_rejects_out_of_range_values_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        CurationConfig(**{field: value})


def test_observation_spans_are_aux_local():
    # permuting cells inside pooling blocks leaves the pooled view unchanged,
    # so only observed tokens (and the answer) may differ
    grid = [row[:] for row in GRID4]
    s = make_lookup_sample(grid, (0, 0, 1, 1), (0, 0))
    permuted = [row[:] for row in grid]
    # swap two distinct symbols inside the top-left pooling block
    assert permuted[0][0] != permuted[0][1]
    permuted[0][0], permuted[0][1] = permuted[0][1], permuted[0][0]
    s2 = make_lookup_sample(permuted, (0, 0, 1, 1), (0, 0))
    assert tasks.pooled_blocks(grid) == tasks.pooled_blocks(permuted)
    t1, t2 = s.cot_text(), s2.cot_text()
    observed = _observed(t1)
    assert _observed(t2) == observed
    changed = [i for i, (x, y) in enumerate(zip(t1, t2)) if x != y]
    assert changed and all(observed[i] for i in changed)
    assert s.question_tokens == s2.question_tokens


def test_dataset_round_trip(tmp_path):
    cfg = CurationConfig(sample_count=150, seed=14)
    records, _ = build_corpus(cfg)
    path = tmp_path / "data.jsonl"
    write_dataset(records, path)
    back = read_dataset(path)
    assert [r.to_dict() for r in back] == [r.to_dict() for r in records]
    assert [(r.sample_id, r.sample) for r in back] == [(r.sample_id, r.sample) for r in records]
    for rec, orig in zip(back, records):  # the judges read only what the file holds
        assert stage1_filter(rec.sample) and stage2_filter(rec.sample)
        assert rec.sample.gold == orig.sample.gold
        assert rec.sample.gold


def test_empty_dataset_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_dataset(path) == []


def test_truncated_line_reports_line_number(tmp_path):
    cfg = CurationConfig(sample_count=40, seed=15)
    records, _ = build_corpus(cfg)
    path = tmp_path / "broken.jsonl"
    lines = [json.dumps(r.to_dict(), sort_keys=True) for r in records[:3]]
    lines[1] = lines[1][: len(lines[1]) // 2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(tasks.DatasetError, match="line 2"):
        read_dataset(path)


def test_non_utf8_byte_names_the_file_and_line(tmp_path):
    records, _ = build_corpus(CurationConfig(sample_count=40, seed=15))
    path = tmp_path / "odd.jsonl"
    lines = [json.dumps(r.to_dict(), sort_keys=True).encode() for r in records[:3]]
    lines[1] = lines[1].replace(b'"question_tokens"', b'"question_\xfftokens"')
    path.write_bytes(b"\n".join(lines) + b"\n")
    where = re.escape(f"{path}: malformed record at line 2: ")
    with pytest.raises(tasks.DatasetError, match=f"^{where}'utf-8' codec can't decode byte 0xff"):
        read_dataset(path)


@pytest.mark.parametrize("edit, why", [
    (lambda d: {**d, "schema_version": 1}, "unsupported schema_version 1"),
    (lambda d: {**d, "schema_version": 2}, "unsupported schema_version 2"),
    (lambda d: {**d, "schema_version": 3}, "unsupported schema_version 3"),
    (lambda d: {**d, "schema_version": 4}, "unsupported schema_version 4"),
    (lambda d: [d], "a JSON list, not an object"),
    (lambda d: {**d, "id": 0}, "duplicate id 0, first at line 1"),
    (lambda d: {**d, "id": "0"}, "id '0' is not an integer"),
    (lambda d: {**d, "id": True}, "id True is not an integer"),
    (lambda d: {k: v for k, v in d.items() if k != "grid"}, "missing key 'grid'"),
    (lambda d: {**d, "corupted": False}, "unknown key 'corupted'"),
    (lambda d: {**d, "question_tokens": [{"count": "lookup"}.get(t, t) for t in d["question_tokens"]]},
     "question_tokens: '<bos> lookup h after remove col 3 remove row 1' is not a question"),
    (lambda d: {**d, "question_tokens": "abc"}, "question_tokens: a JSON str, not an array"),
    (lambda d: {**d, "family": "lookup"}, "unknown key 'family'"),
    (lambda d: {**d, "question_tokens": [*d["question_tokens"][:6], "9", *d["question_tokens"][7:]]},
     "question_tokens: col 9 lies outside the 4x4 grid"),
    # a stored CoT, here a ragged crop whose observation the image does not show
    (lambda d: {**d, "cot": [{"type": "image", "grid": [["a", "a", "b"], ["g", "c"]],
                              "bbox": [2, 2, 3, 3]},
                             {"type": "text", "tokens": ["crop", "shows", vocab.OBS_START,
                                                         "h", "a", "g", "c", vocab.OBS_END]}]},
     "unknown key 'cot'"),
], ids=["schema-version", "schema-version-2", "schema-version-3", "schema-version-4",
        "array-line", "duplicate-id", "string-id", "bool-id", "missing-key", "unknown-key",
        "unknown-family", "string-corrupted", "stored-family", "line-outside-the-grid",
        "stored-cot"])
def test_malformed_record_names_the_file_and_line(tmp_path, edit, why):
    records, _ = build_corpus(CurationConfig(sample_count=40, seed=15))
    path = tmp_path / "odd.jsonl"
    lines = [json.dumps(r.to_dict(), sort_keys=True) for r in records[:3]]
    lines[2] = json.dumps(edit(records[2].to_dict()), sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(tasks.DatasetError, match=f"odd.jsonl: malformed record at line 3: .*{why}"):
        read_dataset(path)


@pytest.mark.parametrize("edit, why", [
    (lambda d: d["question_tokens"].append("bogus"), "question_tokens: unknown token 'bogus'"),
    (lambda d: d["grid"][0].__setitem__(0, "z"), "grid: 'z' is not a grid symbol"),
    (lambda d: d.update(grid=[row[:3] for row in d["grid"][:3]]),
     "grid: 3x3 is not a grid of sides a multiple of 2, at most 8"),
    (lambda d: d["question_tokens"].__setitem__(1, ["lookup"]),
     r"question_tokens: unknown token \['lookup'\]"),
    (lambda d: d["grid"].__setitem__(0, "dehg"), r"grid\[0\]: a JSON str, not an array"),
    (lambda d: d["question_tokens"].__setitem__(8, "1"),
     "question_tokens: '<bos> lookup region 2 2 3 3 cell 1 2' is not a question"),
    (lambda d: d["question_tokens"].__setitem__(slice(3, 9), ["4", "2", "5", "3", "cell", "5"]),
     "question_tokens: row 5 lies outside the 4x4 grid"),
    (lambda d: d.update(question_tokens=tasks.count_question("a", [("row", 0)]),
                        grid=[["a"] * 4 for _ in range(4)]),
     "grid: count 12 exceeds single-digit answers"),
    (lambda d: d["grid"][2].__setitem__(2, "c"),
     "stage 1: the weak judge answers it from the pooled question image"),
], ids=["unknown-token", "unknown-symbol", "unpoolable-grid", "list-token", "string-grid-row",
        "cell-off-the-region", "region-past-the-grid", "count-past-one-digit", "pooled-solvable"])
def test_unbuildable_record_names_the_file_line_and_field(tmp_path, edit, why):
    """A record the layout builders or trainers cannot use fails at read
    time, not at training time, naming the file, the line and the field."""
    records, _ = build_corpus(CurationConfig(sample_count=40, seed=15))
    path = tmp_path / "odd.jsonl"
    lines = [r.to_dict() for r in records[:3]]
    edit(lines[1])
    path.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in lines))
    where = re.escape(f"{path}: malformed record at line 2: ")
    with pytest.raises(tasks.DatasetError, match=f"^{where}{why}$"):
        read_dataset(path)


def test_a_record_writes_only_the_sample_its_task_builds():
    """A record stores only the question and grid, so `to_dict` refuses,
    naming the id, a sample whose CoT or answer they do not build: a
    corrupted last image, an edited crop, an observation the crop does not
    show."""
    rng = np.random.default_rng(4)
    lookup, count = generate_lookup_task(rng), generate_count_task(rng)
    crop, observation = copy.deepcopy(lookup), copy.deepcopy(lookup)
    crop.cot[1].grid[0][0] = next(x for x in vocab.SYMBOLS if x != crop.cot[1].grid[0][0])
    observation.cot[2].tokens[3] = next(x for x in vocab.SYMBOLS
                                        if x != observation.cot[2].tokens[3])
    for bad in (corrupt_sample(lookup, rng), corrupt_sample(count, rng), crop, observation):
        with pytest.raises(ValueError, match="^record 7: the sample is not the one its question "
                                             "and grid build$"):
            DatasetRecord(7, bad).to_dict()
    assert DatasetRecord(7, lookup).to_dict()["question_tokens"] == lookup.question_tokens


def test_record_schema_version_checked():
    with pytest.raises(tasks.DatasetError):
        DatasetRecord.from_dict({"schema_version": 99})


@functools.lru_cache(maxsize=None)
def _boundary_records():
    """JSON objects of a lookup record, a count record and a count record
    with a symbol removal step, keyed by kind."""
    records, _ = build_corpus(CurationConfig(sample_count=40, seed=15))
    out = {f: next(r.to_dict() for r in records if r.sample.family == f)
           for f in ("lookup", "count")}
    out["symbol count"] = DatasetRecord(99, make_count_sample(GRID4, [("sym", "b"), ("row", 0)],
                                                              "a")).to_dict()
    return out


def _mutate(d, path, op, value):
    """Drop, or set to `value`, the node `path` leads to in the JSON object
    `d`. In a dict a string step picks that key (a set adds a missing one)
    and an integer step the key of that rank; in a list an integer step
    picks an item. Indices wrap; the path ends at the first step that does
    not fit."""
    parent, key, node = None, None, d
    for step in path:
        if isinstance(node, dict) and (isinstance(step, str) or node):
            parent, key = node, step if isinstance(step, str) else sorted(node)[step % len(node)]
        elif isinstance(node, list) and isinstance(step, int) and node:
            parent, key = node, step % len(node)
        else:
            break
        node = parent.get(key) if isinstance(parent, dict) else parent[key]
    if parent is None:
        return
    if op == "set":
        parent[key] = value
    elif isinstance(parent, dict):
        parent.pop(key, None)
    else:
        del parent[key]


_KEYS = ["id", "schema_version", "question_tokens", "grid", "cot", "answer_tokens", "type",
         "tokens", "bbox", "family", "lookup", "count", "corrupted", "cell", "target", "steps"]
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-1, 9), st.just(1.5),
                    st.sampled_from(vocab.TOKENS + ["text", "image", "picture", ""]),
                    st.lists(st.integers(0, 3), max_size=4), st.just({}),
                    st.lists(st.sampled_from(vocab.SYMBOLS), max_size=4))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(["lookup", "count", "symbol count"]),
       path=st.lists(st.one_of(st.sampled_from(_KEYS), st.integers(0, 11)), min_size=1, max_size=4),
       op=st.sampled_from(["set", "drop"]), value=_VALUES)
@example(kind="lookup", path=["family"], op="set", value="count")
@example(kind="lookup", path=["lookup", "cell"], op="set", value=[0])
@example(kind="lookup", path=["question_tokens", 8], op="set", value="2")
@example(kind="count", path=["question_tokens"], op="set", value="count")
def test_a_changed_record_reads_whole_or_names_the_file_and_line(tmp_path_factory, kind, path,
                                                                 op, value):
    """Change one field of a valid record: drop or add a key, change a
    value's type, or change one token, cell or bbox value. Either the record
    reads, builds every layout and passes both curation filters, or reading
    raises a DatasetError of its own, naming the file and line."""
    records = _boundary_records()
    d = copy.deepcopy(records[kind])
    _mutate(d, path, op, value)
    file = tmp_path_factory.mktemp("boundary") / "data.jsonl"
    lines = [records["count" if kind == "lookup" else "lookup"], d]
    file.write_text("".join(json.dumps(x, sort_keys=True) + "\n" for x in lines))
    try:
        sample = read_dataset(file)[1].sample
    except tasks.DatasetError as e:
        assert str(e).startswith(f"{file}: malformed record at line 2: ")
        assert isinstance(e.__cause__, tasks.DatasetError), f"an unnamed {e.__cause__!r}"
        return
    build_prompt(sample)
    build_interleaved(sample)
    for with_aux in (True, False):
        build_student(sample, 2, with_aux)
    assert stage1_filter(sample) and stage2_filter(sample)
