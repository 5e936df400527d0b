"""Three-stage supervised fine-tuning pipeline.

Stage 1 (warm-up): next-token prediction on the raw interleaved CoTs with
auxiliary images visible under a causal mask.

Stage 2: a frozen copy of the warm-up model (the teacher) reads the CoT with
real auxiliary images; the student replaces downstream visibility of those
images with autoregressively generated latent slots under the aux-gated mask.
The training signal is NTP plus a cosine alignment of observation-token
hidden states against the teacher, with the alignment term routed to the
parameters exclusively through the generated latent vectors (a surrogate dot
product against stop-gradient adjoints). The trained student then emits
per-layer target latent states for stage 3.

Stage 3: reinitialize from the warm-up model, drop the auxiliary images, and
align the latent states produced without them to the stage-2 targets, again
through the latent-only surrogate, plus NTP.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .layouts import build_interleaved, build_student, build_teacher
from .model import (MaskMode, ModelConfig, SequenceLayout, build_attention_mask,
                    bind_use_sites, copy_params, fill_latents, forward)


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class LossWeights:
    alpha: float = 2.0        # stage-2 observation-alignment weight
    beta_stage3: float = 2.0  # stage-3 latent-alignment weight

    def __post_init__(self):
        for name in ("alpha", "beta_stage3"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass
class StageConfig:
    learning_rate: float = 1e-5
    epochs: int = 1
    max_steps: int | None = None
    grad_accum: int = 1
    k_train: int = 8

    def __post_init__(self):
        for ok, rule in ((self.learning_rate > 0, "learning_rate must be > 0"),
                         (self.epochs >= 1, "epochs must be >= 1"),
                         (self.grad_accum >= 1, "grad_accum must be >= 1"),
                         (self.max_steps is None or self.max_steps >= 1, "max_steps must be None or >= 1"),
                         (self.k_train >= 0, "k_train must be >= 0")):
            if not ok:
                raise ValueError(rule)


DIAG_INTERVAL = 250  # stage-1 steps between observation-accuracy diagnostics
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
WEIGHT_DECAY = 0.01  # AdamW's decoupled weight decay


class AdamW:
    """Adaptive moments with decoupled weight decay."""

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self, grads: dict):
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        # in place, with each product's and sum's operands as in
        # w -= lr * ((m / c1) / (sqrt(v / c2) + eps) + wd * w), so bits match
        for name, tensor in self.params.items():
            g, m, v, w = grads[name], self.m[name], self.v[name], tensor.data
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            update = m / c1
            update /= np.sqrt(v / c2) + ADAM_EPS
            update += WEIGHT_DECAY * w
            update *= self.lr
            w -= update


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def ntp_loss(logits: ad.Tensor, layout: SequenceLayout, label_mask: np.ndarray) -> ad.Tensor:
    """Mean negative log-likelihood over labeled positions.

    Position t contributes -log p(token_t | prefix) read from the logits row
    at t-1.
    """
    if label_mask.shape != (layout.length,):
        raise ValueError("label mask length does not match layout")
    if not label_mask.any():
        raise ValueError("label mask selects no positions")
    if label_mask[0]:
        raise ValueError("position 0 cannot be a prediction target")
    targets = np.zeros(layout.length, dtype=np.int64)
    shifted = np.zeros(layout.length, dtype=bool)
    targets[:-1] = layout.token_at[1:]
    shifted[:-1] = label_mask[1:]
    return ad.masked_mean_nll(logits, targets, shifted)


def _per_layer_alignment(target_rows: list, student_rows: list) -> ad.Tensor:
    terms = [ad.sub(1.0, ad.cosine_rows(ad.stop_gradient(t), s))
             for t, s in zip(target_rows, student_rows)]
    return ad.mean_all(ad.concat_rows([ad.reshape(t, (-1, 1)) for t in terms]))


def align_obs_loss(teacher_stack, student_stack, teacher_positions, student_positions) -> ad.Tensor:
    """Mean over layers 1..L and observation positions of
    1 - cos(stop_grad(teacher state), student state)."""
    if len(teacher_positions) != len(student_positions):
        raise ValueError(
            f"observation position sets differ: {len(teacher_positions)} vs {len(student_positions)}")
    if not teacher_positions:
        raise ValueError("no observation positions to align")
    t_rows = [ad.gather_rows(layer, teacher_positions) for layer in teacher_stack[1:]]
    s_rows = [ad.gather_rows(layer, student_positions) for layer in student_stack[1:]]
    return _per_layer_alignment(t_rows, s_rows)


def align_latent_loss(target: np.ndarray, student_stack, slot_positions) -> ad.Tensor:
    """Mean over layers 1..L and latent slots of
    1 - cos(stop_grad(stored target), student latent state)."""
    L = len(student_stack) - 1
    if target.shape[0] != L or target.shape[1] != len(slot_positions):
        raise ValueError(
            f"target store entry {target.shape} does not match {L} layers x "
            f"{len(slot_positions)} slots")
    t_rows = [ad.constant(target[l]) for l in range(L)]
    s_rows = [ad.gather_rows(layer, slot_positions) for layer in student_stack[1:]]
    return _per_layer_alignment(t_rows, s_rows)


def latent_only_surrogate(loss_grads: list, latent_nodes: list) -> ad.Tensor:
    """Dot the stop-gradient adjoints against the produced latent vectors.

    Backward then reaches the parameters only through the latent production
    paths; its gradient equals d(loss)/d(latents) . d(latents)/d(params).
    """
    if len(loss_grads) != len(latent_nodes):
        raise ValueError("one adjoint per latent vector required")
    total = None
    for g, v in zip(loss_grads, latent_nodes):
        if np.asarray(g).shape != v.shape:
            raise ValueError(f"adjoint shape {np.asarray(g).shape} != latent shape {v.shape}")
        term = ad.dot(ad.constant(g), v)
        total = term if total is None else ad.add(total, term)
    return total if total is not None else ad.constant(0.0)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def measure_obs_accuracy(params: dict, config: ModelConfig, samples) -> tuple:
    """Teacher-forced next-token accuracy restricted to observation positions,
    with auxiliary images present vs removed from the layout."""
    hits = {True: 0, False: 0}
    totals = {True: 0, False: 0}
    with ad.no_grad():
        for sample in samples:
            for with_aux in (True, False):
                built = build_interleaved(sample, include_aux=with_aux)
                mask = build_attention_mask(built.layout, MaskMode.CAUSAL)
                logits, _ = forward(built.layout, mask, params, config)
                for pos in built.obs_positions:
                    pred = int(np.argmax(logits.data[pos - 1]))
                    hits[with_aux] += pred == int(built.layout.token_at[pos])
                    totals[with_aux] += 1
    if totals[True] == 0:
        raise ValueError("eval set has no observation positions")
    return hits[True] / totals[True], hits[False] / totals[False]


# ---------------------------------------------------------------------------
# target latent store
# ---------------------------------------------------------------------------

class LatentStoreError(ValueError):
    """A target latent store entry that is malformed or does not fit the model."""


class TargetLatentStore:
    """Per-sample (layers, slots, hidden) target latent states."""

    def __init__(self, entries: dict | None = None):
        self.entries = dict(entries or {})

    def get(self, sample_id) -> np.ndarray:
        return self.entries[int(sample_id)]

    def put(self, sample_id, arr: np.ndarray):
        self.entries[int(sample_id)] = np.asarray(arr, dtype=np.float64)

    def require(self, shapes: dict):
        """Check that each sample id in `shapes` has a finite entry of its shape."""
        missing = [int(i) for i in shapes if int(i) not in self.entries]
        if missing:
            raise KeyError(f"target latent store is missing sample ids {missing}")
        for sample_id, shape in shapes.items():
            entry = self.get(sample_id)
            if entry.shape != shape:
                raise LatentStoreError(
                    f"target latent store: sample {sample_id}: entry shape {entry.shape} "
                    f"does not match (layers, slots, hidden) = {shape}")
            if not np.isfinite(entry).all():
                raise LatentStoreError(
                    f"target latent store: sample {sample_id}: entry holds non-finite values")

    def save(self, path):
        np.savez(path, **{str(k): v for k, v in self.entries.items()})

    @staticmethod
    def load(path) -> "TargetLatentStore":
        """Read a store; each key must be an integer sample id and each entry
        a finite 3-d array. Errors name the file, and the sample id where
        there is one."""
        def bad(key, why):
            return LatentStoreError(f"{path}: sample {key!r}: {why}")

        try:
            archive = np.load(path)
        except (EOFError, ValueError, zipfile.BadZipFile) as e:
            raise LatentStoreError(f"{path}: not a readable .npz archive: {e}") from e
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise LatentStoreError(f"{path}: a single .npy array, not a .npz archive")
        entries = {}
        with archive as data:
            for key in data.files:
                try:
                    sample_id = int(key)
                except ValueError:
                    raise bad(key, "key is not an integer sample id") from None
                if sample_id in entries:
                    raise bad(key, "repeated sample id")
                try:
                    entry = data[key]
                except (EOFError, ValueError, zipfile.BadZipFile) as e:
                    raise bad(key, f"entry cannot be read: {e}") from e
                if entry.ndim != 3:
                    raise bad(key, f"entry shape {entry.shape} is not (layers, slots, hidden)")
                if entry.dtype.kind not in "fiu" or not np.isfinite(entry).all():
                    raise bad(key, "entry holds non-finite or non-numeric values")
                entries[sample_id] = entry
        return TargetLatentStore(entries)


# ---------------------------------------------------------------------------
# shared training plumbing
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: dict
    log: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    store: TargetLatentStore | None = None


def _epoch_order(n: int, epochs: int, max_steps, rng: np.random.Generator):
    count = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            if max_steps is not None and count >= max_steps:
                return
            count += 1
            yield int(i)


def _train(params: dict, records, stage: StageConfig, seed: int, name: str,
           sample_loss, after_step=None) -> TrainResult:
    """The loop the three SFT stages and RL run, training `params` in place.

    `sample_loss(record)` returns (node to differentiate, log fields); a
    non-finite node value stops training, and a None node is logged and
    adds nothing. AdamW steps on the mean gradient of each `grad_accum`
    samples that gave a node; a last partial window steps on the mean of
    the samples it holds. `seed` is an int or a `Generator`, which draws the
    epoch order. `after_step(step)` runs once each step is logged.
    """
    if not records:
        raise ValueError(f"{name}: no training records")
    opt = AdamW(params, stage.learning_rate)
    order = list(_epoch_order(len(records), stage.epochs, stage.max_steps,
                              np.random.default_rng(seed)))
    result = TrainResult(params)
    acc, in_acc = None, 0
    for step, idx in enumerate(order):
        loss, fields = sample_loss(records[idx])
        if loss is not None:
            if not np.isfinite(loss.item()):
                raise TrainingDiverged(f"{name}: loss became non-finite at step {step}")
            grads = ad.backward(loss, params)
            del loss  # else this step's graph lives on while the next one is built
            acc = grads if acc is None else {k: acc[k] + g for k, g in grads.items()}
            del grads  # else this step's gradients live on through the next backward
            in_acc += 1
        if in_acc and (in_acc >= stage.grad_accum or step == len(order) - 1):
            opt.step(acc if in_acc == 1 else {k: v / in_acc for k, v in acc.items()})
            acc, in_acc = None, 0
        result.log.append({"step": step, **fields})
        if after_step is not None:
            after_step(step)
    return result


def _teacher_pass(sample, teacher_params, config):
    """The frozen teacher over the CoT with its real auxiliary images.
    Returns (built, per-layer states as parentless nodes)."""
    built = build_teacher(sample)
    with ad.no_grad():
        _, stack = forward(built.layout, build_attention_mask(built.layout, MaskMode.CAUSAL),
                           teacher_params, config)
    return built, stack


def _student_pass(sample, k_train, with_aux, params, config):
    """Fill latent slots autoregressively, then run the final pass with
    identity-wrapped slot inputs. Returns (built, produced, sites, logits, stack)."""
    built = build_student(sample, k_train, with_aux=with_aux)
    mask = build_attention_mask(built.layout, built.mask_mode)
    produced = fill_latents(built.layout, mask, params, config)
    sites = bind_use_sites(built.layout, produced)
    logits, stack = forward(built.layout, mask, params, config)
    return built, produced, sites, logits, stack


def _latent_losses(built, produced, sites, logits, loss_align):
    """The tail stages 2 and 3 share: NTP on the student pass, the alignment
    adjoints at the latent use sites, and the surrogate built from them."""
    loss_ntp = ntp_loss(logits, built.layout, built.label_mask)
    site_grads = ad.backward(loss_align, wrt=sites, stop_at=sites)
    surrogate = latent_only_surrogate(site_grads, produced)
    return loss_ntp, loss_align, surrogate, site_grads


def _latent_stage_loss(losses, weight: float, align_field: str):
    """Stage 2/3 sample loss for `_train`: NTP plus the weighted surrogate."""
    loss_ntp, loss_align, surrogate, _ = losses
    total = ad.add(loss_ntp, ad.scale(surrogate, weight))
    return total, {
        "ntp": loss_ntp.item(), align_field: loss_align.item(), "total": total.item()}


# ---------------------------------------------------------------------------
# stage trainers
# ---------------------------------------------------------------------------

def stage1_sample_loss(sample, params, config: ModelConfig) -> ad.Tensor:
    """NTP on the interleaved layout, causal mask, aux images visible."""
    built = build_interleaved(sample)
    mask = build_attention_mask(built.layout, MaskMode.CAUSAL)
    logits, _ = forward(built.layout, mask, params, config)
    return ntp_loss(logits, built.layout, built.label_mask)


def train_stage1(base_params: dict, records, config: ModelConfig, stage: StageConfig,
                 seed: int, diag_samples=None) -> TrainResult:
    """Warm-up: NTP on interleaved layouts, causal mask, aux images visible.

    Logs (step, loss); every DIAG_INTERVAL steps and once at the end also
    logs the observation accuracy diagnostic (with aux, without aux) on
    `diag_samples`.
    """
    params = copy_params(base_params)
    diagnostics = []

    def sample_loss(rec):
        loss = stage1_sample_loss(rec.sample, params, config)
        return loss, {"loss": loss.item()}

    def diagnose(step):
        with_aux, without_aux = measure_obs_accuracy(params, config, diag_samples)
        diagnostics.append({"step": step, "obs_acc_with_aux": with_aux,
                            "obs_acc_without_aux": without_aux})

    def after_step(step):
        if step % DIAG_INTERVAL == 0:
            diagnose(step)

    result = _train(params, records, stage, seed, "stage1", sample_loss,
                    after_step if diag_samples else None)
    if diag_samples:
        diagnose(len(result.log))
    result.diagnostics = diagnostics
    return result


def stage2_sample_losses(sample, teacher_params, student_params, config: ModelConfig,
                         k_train: int):
    """One stage-2 student pass.

    Returns (ntp loss, alignment loss, surrogate, site adjoints); the caller
    combines ntp and surrogate. Exposing the adjoints keeps the gradient-path
    oracles honest.
    """
    teacher_built, t_stack = _teacher_pass(sample, teacher_params, config)
    built, produced, sites, logits, stack = _student_pass(
        sample, k_train, True, student_params, config)
    loss_align = align_obs_loss(t_stack, stack, teacher_built.obs_positions,
                                built.obs_positions)
    return _latent_losses(built, produced, sites, logits, loss_align)


def train_stage2(warmup_params: dict, records, config: ModelConfig, stage: StageConfig,
                 weights: LossWeights, seed: int) -> TrainResult:
    """Teacher-student latent training; emits the target latent store."""
    if stage.k_train < 1:
        raise ValueError("stage 2 requires k_train >= 1")
    student = copy_params(warmup_params)

    def sample_loss(rec):
        return _latent_stage_loss(stage2_sample_losses(
            rec.sample, warmup_params, student, config, stage.k_train),
            weights.alpha, "align_obs")

    result = _train(student, records, stage, seed, "stage2", sample_loss)
    result.store = emit_target_latents(student, records, config, stage.k_train)
    return result


def emit_target_latents(params: dict, records, config: ModelConfig,
                        k_train: int) -> TargetLatentStore:
    """Fresh pass of the trained student over the dataset; stores the
    per-layer states at every latent slot position."""
    store = TargetLatentStore()
    with ad.no_grad():
        for rec in records:
            built, _, _, _, stack = _student_pass(rec.sample, k_train, True, params, config)
            slots = [p for _, _, p in built.layout.latent_slots]
            entry = np.stack([layer.data[slots] for layer in stack[1:]])
            store.put(rec.sample_id, entry)
    return store


def stage3_sample_losses(sample, sample_id, store: TargetLatentStore, params,
                         config: ModelConfig, k_train: int):
    """One stage-3 student pass without aux images; same returns as stage 2."""
    built, produced, sites, logits, stack = _student_pass(
        sample, k_train, False, params, config)
    slots = [p for _, _, p in built.layout.latent_slots]
    loss_align = align_latent_loss(store.get(sample_id), stack, slots)
    return _latent_losses(built, produced, sites, logits, loss_align)


def train_stage3(warmup_params: dict, records, store: TargetLatentStore,
                 config: ModelConfig, stage: StageConfig, weights: LossWeights,
                 seed: int) -> TrainResult:
    """Latent generation without aux images, aligned to the stage-2 targets.

    The model restarts from the warm-up weights, not from stage 2."""
    if stage.k_train < 1:
        raise ValueError("stage 3 requires k_train >= 1")
    slots = {rec.sample_id: len(build_student(rec.sample, stage.k_train,
                                              with_aux=False).layout.latent_slots)
             for rec in records}
    store.require({i: (config.layer_count, n, config.hidden_dim) for i, n in slots.items()})
    params = copy_params(warmup_params)

    def sample_loss(rec):
        return _latent_stage_loss(stage3_sample_losses(
            rec.sample, rec.sample_id, store, params, config, stage.k_train),
            weights.beta_stage3, "align_latent")

    return _train(params, records, stage, seed, "stage3", sample_loss)
