"""Synthetic grid tasks and the two-judge curation pipeline.

Two families:

* lookup (`<bos> lookup region r0 c0 r1 c1 cell r c`): the question names a
  crop region and a cell inside it; the pooled question image only reveals
  per-block symbol multisets, so the exact cell content is hidden. The CoT
  shows the full-resolution crop and states its contents (the observation).
* count (`<bos> count t after remove row i remove col j`, or `remove s` for
  a symbol): removal steps applied to a grid, one auxiliary image per step
  showing the updated grid, per-step counts of the target symbol as
  observations, final count as the answer.

The question tokens are the only store of the task: `lookup_question` and
`count_question` write them, and `parse_question` reads the family, region,
cell, target and steps back. The generators wrap each observation in the
observation delimiter tokens. Curation: stage 1 keeps samples a pooled-view
exhaustive judge cannot answer, stage 2 keeps samples an aux-image judge
answers correctly (deliberately corrupted images fail here). A dataset
record (schema 4) holds `id`, `schema_version`, `question_tokens`, `grid`,
`cot` and `answer_tokens`; it reads only if the layouts can build it and
both curation stages would keep it.
"""

from __future__ import annotations

import copy
import json
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import vocab

POOL = 2  # pooling factor of the question-image embedder
GRID_SIZE = 4  # rows and columns of every generated grid
CROP_SIZE = 2  # side of a lookup task's crop, one pooling block
COUNT_REMOVALS = 2  # row/column removal steps of a count task

SCHEMA_VERSION = 4

Grid = list  # list of rows, each a list of symbol strings


class DatasetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# sample structure
# ---------------------------------------------------------------------------

@dataclass
class TextSeg:
    tokens: list

    def to_dict(self):
        return {"type": "text", "tokens": list(self.tokens)}


@dataclass
class ImageSeg:
    grid: Grid
    bbox: tuple | None = None  # (r0, c0, r1, c1) inclusive, absolute coords

    def to_dict(self):
        return {"type": "image", "grid": [list(r) for r in self.grid],
                "bbox": list(self.bbox) if self.bbox is not None else None}


def _check_keys(where, keys, d):
    odd = sorted(set(keys) ^ set(d))
    if odd:
        raise DatasetError(f"{where}{'missing' if odd[0] in keys else 'unknown'} key {odd[0]!r}")


def _array(name, value) -> list:
    if not isinstance(value, list):
        raise DatasetError(f"{name}: a JSON {type(value).__name__}, not an array")
    return list(value)


def _grid(name, value) -> Grid:
    return [_array(f"{name}[{i}]", row) for i, row in enumerate(_array(name, value))]


_SEG_KEYS = {"text": ("type", "tokens"), "image": ("type", "grid", "bbox")}


def _seg_from_dict(name, d):
    if not isinstance(d, dict):
        raise DatasetError(f"{name}: a JSON {type(d).__name__}, not an object")
    if d.get("type") not in ("text", "image"):
        raise DatasetError(f"{name}: type {d.get('type')!r} is not 'text' or 'image'")
    _check_keys(f"{name}: ", _SEG_KEYS[d["type"]], d)
    if d["type"] == "text":
        return TextSeg(_array(f"{name}.tokens", d["tokens"]))
    bbox = d["bbox"]
    if not (bbox is None or (isinstance(bbox, list) and len(bbox) == 4
                             and all(type(v) is int for v in bbox))):
        raise DatasetError(f"{name}: bbox {bbox!r} is not null or four integers")
    return ImageSeg(_grid(f"{name}.grid", d["grid"]), None if bbox is None else tuple(bbox))


@dataclass
class ToySample:
    question_tokens: list  # the task: family, lookup region and cell, count target and steps
    question_grid: Grid
    cot: list  # TextSeg | ImageSeg, interleaved; a lookup's one image is its crop
    answer_tokens: list  # the boxed span holds the gold answer
    corrupted: bool = False  # set by corrupt_sample; curation drops every such sample

    @property
    def question(self) -> Question:
        """The task `question_tokens` asks."""
        return parse_question(self.question_tokens)

    @property
    def family(self) -> str:
        return self.question.family

    @property
    def gold(self) -> list | None:
        """Tokens inside the last closed boxed span of the answer, the span
        rewards and evaluation judge; None when there is none."""
        inner = vocab.extract_boxed(vocab.encode(self.answer_tokens))
        return None if inner is None else vocab.decode(inner)

    def cot_text(self) -> list:
        out = []
        for seg in self.cot:
            if isinstance(seg, TextSeg):
                out.extend(seg.tokens)
        return out


RECORD_KEYS = ("id", "schema_version", "question_tokens", "grid", "cot", "answer_tokens")


@dataclass
class DatasetRecord:
    sample_id: int
    sample: ToySample

    def to_dict(self):
        s = self.sample
        return {"id": self.sample_id, "schema_version": SCHEMA_VERSION,
                "question_tokens": list(s.question_tokens), "grid": [list(r) for r in s.question_grid],
                "cot": [seg.to_dict() for seg in s.cot], "answer_tokens": list(s.answer_tokens)}

    @staticmethod
    def from_dict(d):
        if d.get("schema_version") != SCHEMA_VERSION:
            raise DatasetError(f"unsupported schema_version {d.get('schema_version')}")
        _check_keys("", RECORD_KEYS, d)
        if type(d["id"]) is not int:  # not a bool, nor a string the latent store reads as an int
            raise DatasetError(f"id {d['id']!r} is not an integer")
        cot = _array("cot", d["cot"])
        sample = ToySample(_array("question_tokens", d["question_tokens"]), _grid("grid", d["grid"]),
                           [_seg_from_dict(f"cot[{i}]", s) for i, s in enumerate(cot)],
                           _array("answer_tokens", d["answer_tokens"]))
        _check_buildable(sample)
        # last: a record reads only if curation would keep it
        if not stage1_filter(sample):
            raise DatasetError("stage 1: the weak judge answers it from the pooled question image")
        if not stage2_filter(sample):
            raise DatasetError("stage 2: the strong judge does not answer it from the last CoT image")
        return DatasetRecord(d["id"], sample)


def _check_buildable(sample: ToySample):
    """Raise DatasetError, naming the field, on what the layout builders or
    the trainers cannot use: a token outside the vocabulary, an answer with
    no closed boxed span, a cell outside the grid symbols, a question grid
    that does not pool into MAX_GRID, a question `parse_question` refuses or
    that names a row or column outside the grid, an image that runs past
    MAX_GRID, or a CoT with no image or no observed token."""
    texts = [("question_tokens", sample.question_tokens),
             ("answer_tokens", sample.answer_tokens)]
    grids = [("grid", sample.question_grid)]
    images, observed = [], False
    for i, seg in enumerate(sample.cot):
        if isinstance(seg, TextSeg):
            texts.append((f"cot[{i}].tokens", seg.tokens))
            inside = False  # delimiters pair within a segment, as layouts reads them
            for tok in seg.tokens:
                if tok in (vocab.OBS_START, vocab.OBS_END):
                    inside = tok == vocab.OBS_START
                else:
                    observed = observed or inside
        else:
            grids.append((f"cot[{i}].grid", seg.grid))
            images.append((f"cot[{i}]", seg))
    for name, tokens in texts:
        for tok in tokens:
            if type(tok) is not str or tok not in vocab.TOKEN_TO_ID:
                raise DatasetError(f"{name}: unknown token {tok!r}")
    if sample.gold is None:
        raise DatasetError("answer_tokens: no closed boxed span")
    if not images:
        raise DatasetError("cot: no image")
    if not observed:
        raise DatasetError("cot: no token between observation delimiters")
    for name, grid in grids:
        for row in grid:
            for cell in row:
                if cell not in vocab.CELL_SYMBOLS:
                    raise DatasetError(f"{name}: {cell!r} is not a grid symbol")
    side = vocab.MAX_GRID
    widths = sorted({len(row) for row in sample.question_grid})
    if len(widths) != 1:
        raise DatasetError(f"grid: rows of widths {widths} do not form a rectangle")
    R, C = len(sample.question_grid), widths[0]
    if not (0 < R <= side and 0 < C <= side and R % POOL == C % POOL == 0):
        raise DatasetError(f"grid: {R}x{C} is not a grid of sides a multiple of {POOL}, "
                           f"at most {side}")
    q = sample.question
    for kind, arg in [("row", q.region[2]), ("col", q.region[3])] if q.region else q.steps:
        if kind != "sym" and arg >= (R if kind == "row" else C):
            raise DatasetError(f"question_tokens: {kind} {arg} lies outside the {R}x{C} grid")
    for name, seg in images:
        r0, c0 = seg.bbox[:2] if seg.bbox is not None else (0, 0)
        rows, cols = len(seg.grid), max(map(len, seg.grid), default=0)
        if not (0 <= r0 and 0 <= c0 and r0 + rows <= side and c0 + cols <= side):
            raise DatasetError(f"{name}: a {rows}x{cols} image at ({r0!r}, {c0!r}) does "
                               f"not fit in the {side}x{side} grid")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def pooled_blocks(grid: Grid) -> dict:
    """Per 2x2 block multiset of symbols, keyed by block coordinates."""
    R, C = len(grid), len(grid[0])
    out = {}
    for bi in range(R // POOL):
        for bj in range(C // POOL):
            cells = [grid[bi * POOL + di][bj * POOL + dj]
                     for di in range(POOL) for dj in range(POOL)]
            out[(bi, bj)] = tuple(sorted(cells))
    return out


def apply_removals(grid: Grid, steps) -> list:
    """Grids after each removal step; cells become vocab.EMPTY."""
    cur = [list(r) for r in grid]
    states = []
    for kind, arg in steps:
        if kind == "sym":
            cur = [[vocab.EMPTY if s == arg else s for s in row] for row in cur]
        elif kind == "row":
            cur = [([vocab.EMPTY] * len(row) if i == arg else list(row))
                   for i, row in enumerate(cur)]
        else:
            cur = [[vocab.EMPTY if j == arg else s for j, s in enumerate(row)] for row in cur]
        states.append([list(r) for r in cur])
    return states


def count_symbol(grid: Grid, sym: str) -> int:
    return sum(row.count(sym) for row in grid)


# ---------------------------------------------------------------------------
# sample assembly
# ---------------------------------------------------------------------------

# A question's task: "lookup" with its crop region (r0, c0, r1, c1) and queried (r, c) cell,
# or "count" with its target symbol and ((kind, arg), ...) removal steps; see parse_question.
Question = namedtuple("Question", "family region cell target steps", defaults=(None,) * 4)


def lookup_question(bbox, cell) -> list:
    (r0, c0, r1, c1), (qr, qc) = bbox, cell
    if not (r0 <= qr <= r1 and c0 <= qc <= c1):
        raise ValueError(f"cell {cell} outside crop {bbox}")
    return [vocab.BOS, "lookup", "region", *map(vocab.digit, bbox), "cell", *map(vocab.digit, cell)]


def _step_tokens(kind, arg) -> list:
    if kind == "sym" and arg in vocab.SYMBOLS:
        return ["remove", arg]
    if kind in ("row", "col"):
        return ["remove", kind, vocab.digit(arg)]
    raise ValueError(f"bad removal step {(kind, arg)}")


def count_question(target, steps) -> list:
    if target not in vocab.SYMBOLS or not steps:
        raise ValueError(f"count question needs a symbol target ({target!r}) and a removal step")
    return [vocab.BOS, "count", target, "after", *(t for step in steps for t in _step_tokens(*step))]


def parse_question(tokens) -> Question:
    """The inverse of `lookup_question` and `count_question`, which check
    what they are given; DatasetError naming question_tokens on any token
    sequence they do not write."""
    tokens = list(tokens)
    try:
        if tokens[1] == "lookup":
            n = tuple(map(int, tokens[3:7] + tokens[8:]))
            q, asked = Question("lookup", region=n[:4], cell=n[4:]), lookup_question(n[:4], n[4:])
        else:
            cuts = [i for i, t in enumerate(tokens) if t == "remove"] + [len(tokens)]
            steps = tuple(("sym", *w) if len(w) == 1 else (w[0], int(w[1]))
                          for w in (tokens[a + 1:b] for a, b in zip(cuts, cuts[1:])))
            q = Question("count", target=tokens[2], steps=steps)
            asked = count_question(q.target, steps)
    except (IndexError, ValueError):
        asked = None
    if asked != tokens:
        raise DatasetError(f"question_tokens: {' '.join(map(str, tokens))!r} is not a question")
    return q


def make_lookup_sample(grid: Grid, bbox, cell) -> ToySample:
    """Deterministic lookup sample from explicit grid, crop bbox, queried cell."""
    (r0, c0, r1, c1), (qr, qc) = bbox, cell
    if not (r1 < len(grid) and c1 < len(grid[0])):
        raise ValueError(f"crop {bbox} runs past the grid")
    crop = [row[c0:c1 + 1] for row in grid[r0:r1 + 1]]
    flat = [s for row in crop for s in row]
    return ToySample(
        question_tokens=lookup_question(bbox, cell),
        question_grid=[list(r) for r in grid],
        cot=[TextSeg(["inspect", "region"]), ImageSeg(crop, tuple(bbox)),
             TextSeg(["crop", "shows", vocab.OBS_START, *flat, vocab.OBS_END])],
        answer_tokens=["answer", "is", vocab.BOXED, grid[qr][qc], vocab.BOX_CLOSE, vocab.EOS],
    )


def make_count_sample(grid: Grid, steps, target: str) -> ToySample:
    """Deterministic count sample from explicit grid, removal steps, target."""
    question = count_question(target, steps)
    cot = []
    for step, state in zip(steps, apply_removals(grid, steps)):
        cot.append(TextSeg(_step_tokens(*step)))
        cot.append(ImageSeg(state, None))
        cnt = count_symbol(state, target)
        if cnt > 9:
            raise ValueError(f"count {cnt} exceeds single-digit answers")
        cot.append(TextSeg(["now", vocab.OBS_START, vocab.digit(cnt), vocab.OBS_END]))
    return ToySample(
        question_tokens=question,
        question_grid=[list(r) for r in grid],
        cot=cot,
        answer_tokens=["answer", "is", vocab.BOXED, vocab.digit(cnt), vocab.BOX_CLOSE, vocab.EOS],
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

# per-block composition of lookup grids: (name, weight); "uniform" blocks are
# pooled-solvable and exist to exercise the stage-1 drop path
_BLOCK_KINDS = [("uniform", 0.05), ("triple", 0.60), ("pair", 0.25), ("distinct", 0.10)]


def _fill_block(rng: np.random.Generator) -> list:
    kinds, weights = zip(*_BLOCK_KINDS)
    kind = rng.choice(kinds, p=weights)
    syms = list(vocab.SYMBOLS)
    if kind == "uniform":
        cells = [syms[rng.integers(len(syms))]] * 4
    elif kind == "triple":
        maj, minor = rng.choice(len(syms), size=2, replace=False)
        cells = [syms[maj]] * 3 + [syms[minor]]
    elif kind == "pair":
        maj, o1, o2 = rng.choice(len(syms), size=3, replace=False)
        cells = [syms[maj]] * 2 + [syms[o1], syms[o2]]
    else:
        cells = [syms[i] for i in rng.choice(len(syms), size=4, replace=False)]
    order = rng.permutation(4)
    return [cells[i] for i in order]


def generate_lookup_task(rng: np.random.Generator) -> ToySample:
    """Crops are aligned to pooling blocks, so one pooled patch carries the
    whole (lossy) evidence for the queried region."""
    R = C = GRID_SIZE
    grid = [[None] * C for _ in range(R)]
    for bi in range(R // POOL):
        for bj in range(C // POOL):
            block = _fill_block(rng)
            for k, (di, dj) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
                grid[bi * POOL + di][bj * POOL + dj] = block[k]
    r0 = POOL * int(rng.integers(0, (R - CROP_SIZE) // POOL + 1))
    c0 = POOL * int(rng.integers(0, (C - CROP_SIZE) // POOL + 1))
    bbox = (r0, c0, r0 + CROP_SIZE - 1, c0 + CROP_SIZE - 1)
    qr = r0 + int(rng.integers(CROP_SIZE))
    qc = c0 + int(rng.integers(CROP_SIZE))
    return make_lookup_sample(grid, bbox, (qr, qc))


def generate_count_task(rng: np.random.Generator) -> ToySample:
    R = C = GRID_SIZE
    for _ in range(64):
        syms = [vocab.SYMBOLS[i] for i in rng.choice(len(vocab.SYMBOLS), size=4, replace=False)]
        grid = [[syms[rng.integers(len(syms))] for _ in range(C)] for _ in range(R)]
        target = syms[int(rng.integers(len(syms)))]
        lines = [("row", i) for i in range(R)] + [("col", j) for j in range(C)]
        picks = rng.choice(len(lines), size=COUNT_REMOVALS, replace=False)
        steps = [lines[i] for i in picks]
        if count_symbol(grid, target) > 9:
            continue
        return make_count_sample(grid, steps, target)
    raise RuntimeError("could not generate a count sample within digit range")


def corrupt_sample(sample: ToySample, rng: np.random.Generator) -> ToySample:
    """Flip one cell of the decisive (last) CoT image so the strong judge fails."""
    s = copy.deepcopy(sample)
    s.corrupted = True
    last = [seg for seg in s.cot if isinstance(seg, ImageSeg)][-1]
    q = s.question
    if q.family == "lookup":
        r0, c0 = last.bbox[:2]
        qr, qc = q.cell
        row = last.grid[qr - r0]
        others = [x for x in vocab.SYMBOLS if x != row[qc - c0]]
        row[qc - c0] = others[int(rng.integers(len(others)))]
    else:
        target = q.target
        cells = [(i, j) for i, row in enumerate(last.grid) for j, x in enumerate(row)
                 if x == target]
        if cells:
            i, j = cells[int(rng.integers(len(cells)))]
            others = [x for x in vocab.SYMBOLS if x != target]
            last.grid[i][j] = others[int(rng.integers(len(others)))]
        else:
            i, j = int(rng.integers(len(last.grid))), int(rng.integers(len(last.grid[0])))
            last.grid[i][j] = target
    return s


# ---------------------------------------------------------------------------
# judges
# ---------------------------------------------------------------------------

def weak_candidates(sample: ToySample) -> set:
    """All answers consistent with the question plus the pooled question image."""
    blocks = pooled_blocks(sample.question_grid)
    q = sample.question
    if q.family == "lookup":
        qr, qc = q.cell
        return set(blocks[(qr // POOL, qc // POOL)])
    removed = set(q.steps)
    totals = {0}
    for (bi, bj), multiset in blocks.items():
        # the block's t targets can sit in any of its cells: anywhere from
        # max(0, t - gone) to min(t, kept) of them in the cells no step blanks
        t = 0 if ("sym", q.target) in removed else multiset.count(q.target)
        gone = sum(("row", bi * POOL + di) in removed or ("col", bj * POOL + dj) in removed
                   for di in range(POOL) for dj in range(POOL))
        kept = POOL * POOL - gone
        totals = {n + c for n in totals for c in range(max(0, t - gone), min(t, kept) + 1)}
    return {str(t) for t in totals}


def weak_judge_answer(sample: ToySample):
    """Pooled-view exhaustive judge: answers only when uniquely determined."""
    cands = weak_candidates(sample)
    if len(cands) == 1:
        return next(iter(cands))
    return None


def strong_judge_answer(sample: ToySample):
    """Aux-image judge: reads the last CoT image, nothing else; a lookup
    crop must show the question's region."""
    images = [seg for seg in sample.cot if isinstance(seg, ImageSeg)]
    if not images:
        return None
    shown = images[-1]
    q = sample.question
    if q.family == "count":
        return str(count_symbol(shown.grid, q.target))
    if shown.bbox != q.region:
        return None
    i, j = q.cell[0] - q.region[0], q.cell[1] - q.region[1]
    if not (0 <= i < len(shown.grid) and 0 <= j < len(shown.grid[i])):
        return None
    return shown.grid[i][j]


def _solves(answer, sample: ToySample) -> bool:
    return answer is not None and [answer] == list(sample.gold)


def stage1_filter(sample: ToySample) -> bool:
    """Keep iff the weak judge fails (wrong answer or abstention)."""
    return not _solves(weak_judge_answer(sample), sample)


def stage2_filter(sample: ToySample) -> bool:
    """Keep iff the strong judge answers correctly from the aux images."""
    return _solves(strong_judge_answer(sample), sample)


def strip_observation_tags(tokens: list) -> list:
    return [t for t in tokens if t not in (vocab.OBS_START, vocab.OBS_END)]


# ---------------------------------------------------------------------------
# curation pipeline
# ---------------------------------------------------------------------------

@dataclass
class CurationConfig:
    sample_count: int = 5000
    seed: int = 0
    corrupt_fraction: float = 0.10
    lookup_fraction: float = 0.80

    def __post_init__(self):
        for ok, rule in ((self.sample_count >= 1, "sample_count must be >= 1"),
                         (0.0 <= self.corrupt_fraction <= 1.0, "corrupt_fraction must lie in [0, 1]"),
                         (0.0 <= self.lookup_fraction <= 1.0, "lookup_fraction must lie in [0, 1]")):
            if not ok:
                raise ValueError(rule)


def generate_raw(cfg: CurationConfig) -> list:
    """Pre-curation samples, one spawned rng stream per sample."""
    root = np.random.SeedSequence(cfg.seed)
    out = []
    for child in root.spawn(cfg.sample_count):
        rng = np.random.default_rng(child)
        if rng.random() < cfg.lookup_fraction:
            s = generate_lookup_task(rng)
        else:
            s = generate_count_task(rng)
        if rng.random() < cfg.corrupt_fraction:
            s = corrupt_sample(s, rng)
        out.append(s)
    return out


def curate(samples):
    """Run the two judge filters; returns (records, stats)."""
    records, stats = [], {"raw": len(samples), "stage1_dropped": 0, "stage2_dropped": 0}
    for s in samples:
        if not stage1_filter(s):
            stats["stage1_dropped"] += 1
        elif not stage2_filter(s):
            stats["stage2_dropped"] += 1
        else:
            records.append(DatasetRecord(len(records), s))
    stats["curated"] = len(records)
    return records, stats


def build_corpus(cfg: CurationConfig):
    return curate(generate_raw(cfg))


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

def write_dataset(records, path):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":")))
            f.write("\n")


def read_dataset(path):
    records, first_line = [], {}  # sample id -> line of its record
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line = line.decode().strip()
                if not line:
                    continue
                d = json.loads(line)
                if not isinstance(d, dict):
                    raise DatasetError(f"a JSON {type(d).__name__}, not an object")
                record = DatasetRecord.from_dict(d)
                if record.sample_id in first_line:
                    raise DatasetError(f"duplicate id {record.sample_id!r}, first at line "
                                       f"{first_line[record.sample_id]}")
                first_line[record.sample_id] = lineno
                records.append(record)
            except (ValueError, KeyError, TypeError) as e:
                raise DatasetError(f"{path}: malformed record at line {lineno}: {e}") from e
    return records
