"""Two-stage mini-batch training with Nesterov Adam and validation-F1
checkpoint selection.

Stage one runs small batches, stage two continues from the stage-one best
checkpoint with large batches; the returned model is the best stage-two
checkpoint by validation chunk F1 (ties break to the earliest epoch).  The
per-batch loss is the mean of the sentences' CRF negative log-likelihoods,
one CRF call over the whole padded batch whatever its size, and the model's
reverse sweep turns the CRF's gradients into every parameter's.  Gradients
are clipped to a global norm before the optimizer step.  Word embeddings
live outside the parameter set and are never updated.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Sentence, make_batches
from .crf import crf_negative_log_likelihood
from .embeddings import EmbeddingStore, atomic_write
from .evaluation import evaluate_bio
from .model import NerModel, backward, forward_emissions, predict_batch, save_model

__all__ = [
    "TrainingError",
    "TrainConfig",
    "NadamState",
    "EpochRecord",
    "TrainReport",
    "nadam_step",
    "train_epoch",
    "train_two_stage",
    "evaluate_chunk_f1",
]


class TrainingError(Exception):
    pass


# Nadam's moment decay rates and denominator guard.
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


def _finite_positive(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 < value < math.inf


@dataclass
class TrainConfig:
    stage1_epochs: int = 10
    stage1_batch: int = 16
    stage2_epochs: int = 10
    stage2_batch: int = 512
    learning_rate: float = 0.002
    seed: int = 0
    gradient_clip_norm: float | None = 5.0
    label_level: str = "outer"

    def __post_init__(self):
        for name in ("stage1_epochs", "stage1_batch", "stage2_epochs", "stage2_batch"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TrainingError(f"{name} must be an integer, got {value!r}")
        if min(self.stage1_epochs, self.stage2_epochs) < 1:
            raise TrainingError(
                f"each stage needs at least one epoch, got {self.stage1_epochs} and {self.stage2_epochs}")
        if min(self.stage1_batch, self.stage2_batch) < 1:
            raise TrainingError(f"batch sizes must be >= 1, got {self.stage1_batch} and {self.stage2_batch}")
        if not _finite_positive(self.learning_rate):
            raise TrainingError(f"learning_rate must be a finite number > 0, got {self.learning_rate!r}")
        # A negative clip norm flips the gradient and a zero one erases it.
        if self.gradient_clip_norm is not None and not _finite_positive(self.gradient_clip_norm):
            raise TrainingError(f"gradient_clip_norm must be None or a finite number > 0, "
                                f"got {self.gradient_clip_norm!r}")
        if self.label_level not in ("outer", "inner"):
            raise TrainingError(f"label_level must be 'outer' or 'inner', got {self.label_level!r}")


@dataclass
class NadamState:
    """Per-parameter first/second moments plus the shared step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def nadam_step(
    params: list[tuple[str, np.ndarray]],
    grads: dict[str, np.ndarray],
    state: NadamState,
    config: TrainConfig,
):
    """Nesterov Adam update, applied in place.

    Bias-corrected first/second moments with a Nesterov lookahead on the
    first moment:

        m <- b1*m + (1-b1)*g            v <- b2*v + (1-b2)*g^2
        m_hat = m / (1 - b1^t)          v_hat = v / (1 - b2^t)
        m_bar = b1*m_hat + (1-b1)*g / (1 - b1^t)
        theta <- theta - lr * m_bar / (sqrt(v_hat) + eps)
    """
    state.step += 1
    # The bias corrections fold into two scalars:
    #   m_bar / (sqrt(v_hat) + eps) = (b1*m + (1-b1)*g) / bc1 / (sqrt(v) / sqrt(bc2) + eps)
    rate = config.learning_rate / (1.0 - BETA1**state.step)
    root_bc2 = math.sqrt(1.0 - BETA2**state.step)
    for name, p in params:
        g = grads[name]
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        g_part = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += g_part
        update = np.square(g)
        update *= 1.0 - BETA2
        v *= BETA2
        v += update
        np.multiply(m, BETA1, out=update)
        update += g_part
        denom = np.sqrt(v, out=g_part)
        denom /= root_bc2
        denom += EPSILON
        update /= denom
        update *= rate
        p -= update


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float | None) -> float:
    """Scale all gradients so the global L2 norm, summed in float64, is at
    most ``max_norm``."""
    total = float(np.sqrt(sum(float(np.square(g, dtype=np.float64).sum()) for g in grads.values())))
    if max_norm is not None and total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def batch_loss(
    model: NerModel,
    batch,
    store: EmbeddingStore,
    level: str,
    rng: np.random.Generator | None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean per-sentence CRF negative log-likelihood of one batch under a
    train-mode forward (dropout drawn from ``rng``), and every parameter's
    gradient, keyed as :meth:`NerModel.parameters`."""
    schema = model.config.label_schema
    emissions, cache = forward_emissions(model, batch, store, mode="train", rng=rng)
    gold = np.zeros(batch.mask.shape, dtype=np.int64)
    gold[batch.mask] = [schema.index_of(lab) for sent in batch.sentences for lab in sent.labels(level)]
    loss, crf_grads = crf_negative_log_likelihood(model.crf, emissions, gold, batch.lengths)
    return loss, backward(model, cache, crf_grads)


def train_epoch(
    model: NerModel,
    data: list[Sentence],
    embedding_store: EmbeddingStore,
    config: TrainConfig,
    stage: int,
    state: NadamState | None = None,
    epoch_seed: int = 0,
) -> dict:
    """One pass over all batches.

    Returns ``mean_loss``, ``batches`` and ``grad_norm`` (the last batch's
    pre-clip gradient norm), plus ``grad_norm_mean`` over the epoch's
    batches, ``clip_share`` (the share of steps on which clipping fired),
    ``wall_s`` and ``tokens_per_s``.
    """
    if stage not in (1, 2):
        raise TrainingError(f"stage must be 1 or 2, got {stage}")
    if not data:
        raise TrainingError("training on an empty dataset")
    state = state if state is not None else NadamState()
    batch_size = config.stage1_batch if stage == 1 else config.stage2_batch
    batches = make_batches(
        data,
        batch_size,
        seed=epoch_seed,
        char_vocab=model.char_vocab,
        char_mode=model.config.required_char_mode,
    )
    rng = np.random.default_rng(epoch_seed + 0x9E3779B9)
    started = time.perf_counter()
    losses, norms = [], []
    for batch in batches:
        loss, grads = batch_loss(model, batch, embedding_store, config.label_level, rng)
        norms.append(clip_gradients(grads, config.gradient_clip_norm))
        nadam_step(model.parameters(), grads, state, config)
        losses.append(loss)
    wall = time.perf_counter() - started
    clip = config.gradient_clip_norm
    return {
        "mean_loss": float(np.mean(losses)),
        "batches": len(batches),
        "grad_norm": norms[-1],
        "grad_norm_mean": float(np.mean(norms)),
        "clip_share": float(np.mean([clip is not None and n > clip for n in norms])),
        "wall_s": wall,
        "tokens_per_s": sum(len(s) for s in data) / wall if wall > 0 else 0.0,
    }


def evaluate_chunk_f1(
    model: NerModel,
    sentences: list[Sentence],
    store: EmbeddingStore,
    level: str = "outer",
) -> float:
    """Chunk F1 of model predictions against gold labels at ``level``."""
    gold = [s.labels(level) for s in sentences]
    pred = predict_batch(model, store, sentences)
    return evaluate_bio(gold, pred).f1


@dataclass
class EpochRecord:
    stage: int
    epoch: int
    mean_loss: float
    dev_f1: float
    checkpoint_id: str
    grad_norm_mean: float = 0.0
    clip_share: float = 0.0
    wall_s: float = 0.0
    tokens_per_s: float = 0.0


@dataclass
class TrainReport:
    rows: list[EpochRecord] = field(default_factory=list)
    selected: dict[int, str] = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def to_jsonl(self) -> str:
        lines = [json.dumps(asdict(r)) for r in self.rows]
        lines.append(json.dumps({"selected": self.selected, "wall_clock_s": self.wall_clock_s}))
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path):
        with atomic_write(path) as fh:
            fh.write(self.to_jsonl().encode("utf-8"))


def _run_stage(
    model: NerModel,
    train: list[Sentence],
    dev: list[Sentence],
    store: EmbeddingStore,
    config: TrainConfig,
    stage: int,
    epochs: int,
    state: NadamState,
    report: TrainReport,
    checkpoint_dir: Path | None,
) -> dict[str, np.ndarray]:
    best_f1 = -1.0
    best_snap: dict[str, np.ndarray] | None = None
    best_id = ""
    for epoch in range(1, epochs + 1):
        epoch_seed = config.seed * 1_000_003 + stage * 10_007 + epoch
        row = train_epoch(model, train, store, config, stage, state, epoch_seed=epoch_seed)
        dev_f1 = evaluate_chunk_f1(model, dev, store, config.label_level)
        ckpt_id = f"stage{stage}_epoch{epoch}"
        if checkpoint_dir is not None:
            save_model(model, checkpoint_dir / f"{ckpt_id}.mner")
        report.rows.append(EpochRecord(stage, epoch, row["mean_loss"], dev_f1, ckpt_id, row["grad_norm_mean"],
                                       row["clip_share"], row["wall_s"], row["tokens_per_s"]))
        # argmax with ties broken by the earliest epoch
        if dev_f1 > best_f1:
            best_f1 = dev_f1
            best_snap = model.snapshot()
            best_id = ckpt_id
    assert best_snap is not None
    report.selected[stage] = best_id
    return best_snap


def train_two_stage(
    model: NerModel,
    train: list[Sentence],
    dev: list[Sentence],
    embedding_store: EmbeddingStore,
    config: TrainConfig,
    checkpoint_dir: str | Path | None = None,
) -> tuple[NerModel, TrainReport]:
    """Stage one at the small batch size, stage two continues from the
    stage-one best checkpoint at the large batch size; returns the stage-two
    best checkpoint and the epoch-by-epoch report."""
    if not train:
        raise TrainingError("training on an empty dataset")
    if not dev:
        raise TrainingError("two-stage training needs a validation set")
    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if checkpoint_dir is not None:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    report = TrainReport()
    state = NadamState()
    best1 = _run_stage(model, train, dev, embedding_store, config, 1, config.stage1_epochs,
                       state, report, checkpoint_dir)
    model.restore(best1)
    best2 = _run_stage(model, train, dev, embedding_store, config, 2, config.stage2_epochs,
                       NadamState(), report, checkpoint_dir)
    model.restore(best2)
    report.wall_clock_s = time.perf_counter() - started
    return model, report
