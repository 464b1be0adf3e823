"""Command-line entry points: train, evaluate, predict, serve, split-oov."""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
from pathlib import Path

from .corpus import (
    CorpusError,
    LabelSchema,
    combined_schema,
    conll_schema,
    germeval_schema,
    build_char_vocab,
    iob_to_bio,
    map_combined,
    parse_conll03,
    parse_germeval,
    write_germeval,
    Sentence,
)
from .embeddings import EmbeddingError, atomic_write, check_kind, load_store
from .evaluation import EvaluationError, evaluate_bio, germeval_combined, split_oov_iv
from .model import ModelConfig, ModelError, ModelFormatError, build_model, load_model, predict, save_model
from .service import ModelRegistry, ServiceError, serve
from .training import TrainConfig, TrainingError, train_two_stage

ENV_BIND = "GNER_BIND"
ENV_PORT = "GNER_PORT"

_SCHEMAS = {"germeval": germeval_schema, "conll": conll_schema, "combined": combined_schema}
_RUN_KEYS = ("format", "schema", "combined_mapping", "train_path", "dev_path", "embeddings", "model", "training")


def _parse_corpus(path: str | Path, fmt: str) -> list[Sentence]:
    if fmt == "germeval":
        return parse_germeval(path)
    if fmt == "conll":
        sentences = parse_conll03(path)
        return [
            Sentence(s.tokens, iob_to_bio(s.outer_labels), None, s.source_id) for s in sentences
        ]
    raise CorpusError(f"unknown corpus format {fmt!r}")


def _map_combined(sentences: list[Sentence]) -> list[Sentence]:
    return [Sentence(s.tokens, map_combined(s.outer_labels), None, s.source_id) for s in sentences]


def _check_labels(sentences: list[Sentence], path: Path, schema: LabelSchema, level: str):
    for n, sentence in enumerate(sentences, 1):
        for label in sentence.labels(level):
            if label not in schema.index:
                raise TrainingError(f"{path}: sentence {n} has label {label!r}, which the run's schema "
                                    f"over {', '.join(schema.entity_classes)} lacks")


def _cmd_train(args) -> int:
    config_path = Path(args.config)
    try:
        spec = json.loads(config_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise TrainingError(f"{config_path}: not a JSON run configuration: {exc}") from None
    if not isinstance(spec, dict):
        raise TrainingError(f"{config_path}: not a JSON run configuration: expected an object")
    base = config_path.parent
    missing = [key for key in ("train_path", "dev_path", "embeddings") if key not in spec]
    if missing:
        raise TrainingError(f"{config_path}: run configuration lacks {', '.join(missing)}")
    unknown = [key for key in spec if key not in _RUN_KEYS]
    if unknown:
        raise TrainingError(f"{config_path}: unknown key(s) {', '.join(unknown)}; choose from {', '.join(_RUN_KEYS)}")

    fmt = spec.get("format", "germeval")
    schema_name = spec.get("schema", "combined" if spec.get("combined_mapping") else fmt)
    if not isinstance(schema_name, str) or schema_name not in _SCHEMAS:
        raise TrainingError(f"{config_path}: unknown schema {schema_name!r}; choose from {sorted(_SCHEMAS)}")
    schema = _SCHEMAS[schema_name]()
    emb_spec = spec["embeddings"]
    if not isinstance(emb_spec, dict) or not isinstance(emb_spec.get("path"), str):
        raise TrainingError(f'{config_path}: embeddings must be an object with a "path" string, got {emb_spec!r}')

    for key in ("model", "training"):
        if not isinstance(spec.get(key, {}), dict):
            raise TrainingError(f"{config_path}: {key} must be an object, got {spec[key]!r}")
    try:
        train_cfg = TrainConfig(**spec.get("training", {}))
    except (TypeError, TrainingError) as exc:  # an unknown or ill-typed "training" key
        raise TrainingError(f"{config_path}: {exc}") from None

    def load_split(key):
        # Entries are paths (using the global format) or {"path", "format"}
        # objects, so one run can mix both corpus formats.  Each entry's
        # labels are checked against the run's schema before anything is
        # loaded or built.
        entries = spec[key] if isinstance(spec[key], list) else [spec[key]]
        out = []
        for entry in entries:
            if isinstance(entry, str):
                entry = {"path": entry}
            if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
                raise TrainingError(
                    f'{config_path}: {key} entries must be paths or objects with a "path" string, got {entry!r}'
                )
            path = base / entry["path"]
            sentences = _parse_corpus(path, entry.get("format", fmt))
            if spec.get("combined_mapping"):
                sentences = _map_combined(sentences)
            _check_labels(sentences, path, schema, train_cfg.label_level)
            out += sentences
        return out

    train_sents = load_split("train_path")
    dev_sents = load_split("dev_path")

    store = load_store(base / emb_spec["path"], emb_spec.get("kind"))

    # The model records the store's kind; a "model" key may only repeat it.
    model_kwargs = {"embedding_kind": store.kind, "word_dim": store.dim, **spec.get("model", {})}
    check_kind(base / emb_spec["path"], model_kwargs["embedding_kind"], store.kind)
    try:
        model_cfg = ModelConfig(label_schema=schema, **model_kwargs)
    except (TypeError, ModelError) as exc:  # an unknown or ill-typed "model" key
        raise TrainingError(f"{config_path}: {exc}") from None
    vocab = build_char_vocab(train_sents) if model_cfg.required_char_mode is not None else None
    model = build_model(model_cfg, vocab, seed=train_cfg.seed)

    best, report = train_two_stage(
        model, train_sents, dev_sents, store, train_cfg,
        checkpoint_dir=args.checkpoints,
    )
    save_model(best, args.out)
    if args.report:
        report.save(args.report)
    best_row = max((r for r in report.rows if r.stage == 2), key=lambda r: r.dev_f1)
    print(f"saved {args.out}; best dev F1 {best_row.dev_f1:.4f} ({best_row.checkpoint_id})")
    return 0


def _cmd_evaluate(args) -> int:
    gold = _parse_corpus(args.gold, args.format)
    pred = _parse_corpus(args.pred, args.format)
    if len(gold) != len(pred):
        print(f"error: {len(gold)} gold sentences vs {len(pred)} predicted", file=sys.stderr)
        return 1
    if args.level == "combined":
        report = germeval_combined(
            [s.outer_labels for s in gold],
            [s.labels("inner") for s in gold],
            [s.outer_labels for s in pred],
            [s.labels("inner") for s in pred],
            strict=args.strict,
        )
    else:
        report = evaluate_bio(
            [s.labels(args.level) for s in gold],
            [s.labels(args.level) for s in pred],
            strict=args.strict,
        )
    print(report.render_table())
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write((json.dumps(report.to_dict(), indent=2) + "\n").encode("utf-8"))
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    store = load_store(args.embeddings)
    for line in sys.stdin:
        tokens = line.split()
        if not tokens:
            print()
            continue
        print(" ".join(predict(model, store, tokens)))
    return 0


def resolve_bind(bind_flag: str | None, port_flag: int | None) -> tuple[str, int]:
    """CLI flags win over GNER_BIND/GNER_PORT, which win over defaults."""
    bind = bind_flag or os.environ.get(ENV_BIND, "127.0.0.1")
    try:
        port = port_flag if port_flag is not None else int(os.environ.get(ENV_PORT, "8080"))
    except ValueError:
        raise ServiceError(f"${ENV_PORT} is not a port number: {os.environ[ENV_PORT]!r}") from None
    if not 0 <= port <= 65535:
        raise ServiceError(f"port {port} is outside 0-65535")
    return bind, port


# Signals that stop the server.  They stay blocked while workers are
# forked, so that each process meets them inside its own handling.
_STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def _fork_workers(server, pids: list[int]):
    """Fork one worker for each further CPU this process may run on, each
    serving on ``server``'s socket, and append their pids to ``pids`` (the
    caller's list, so a stop signal that arrives meanwhile loses none).
    Nothing is forked on one CPU or where the platform cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return
    count = len(os.sched_getaffinity(0)) - 1
    if count < 1:
        return
    # Every process polls the one socket and all of them wake on a new
    # connection; the ones that lose the accept go back to polling instead of
    # blocking in accept(), where a worker could not see its parent die.
    server.socket.setblocking(False)
    parent = os.getpid()
    signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
    try:
        for _ in range(count):
            pid = os.fork()
            if pid == 0:
                _work(server, parent)
            pids.append(pid)
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)


def _work(server, parent: int):
    """A forked worker's life.  It never returns into the caller: it leaves
    through ``os._exit`` on a stop signal, or once ``parent`` has died,
    which ``serve_forever`` checks after every request and at least every
    half second while idle."""
    code = 0
    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)

        def leave_if_orphaned():
            if os.getppid() != parent:
                os._exit(0)

        server.service_actions = leave_if_orphaned
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        os._exit(code)


def _cmd_serve(args) -> int:
    bind, port = resolve_bind(args.bind, args.port)
    registry = ModelRegistry.load(args.registry)
    server = serve(registry, bind, port)
    # SIGTERM, and SIGINT even where the launching shell ignores it, stop
    # the server and its workers the way Ctrl-C does.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    workers: list[int] = []
    try:
        _fork_workers(server, workers)
        print(f"serving {registry.names()} on http://{bind}:{server.server_address[1]}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for pid in workers:
            os.kill(pid, signal.SIGTERM)
        for pid in workers:
            os.waitpid(pid, 0)
    server.server_close()
    return 0


def _cmd_split_oov(args) -> int:
    sentences = _parse_corpus(args.data, args.format)
    store = load_store(args.embeddings)
    iv, oov = split_oov_iv(sentences, store)
    write_germeval(iv, f"{args.out_prefix}.iv.tsv")
    write_germeval(oov, f"{args.out_prefix}.oov.tsv")
    print(f"iv: {len(iv)} sentences, oov: {len(oov)} sentences")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gner", description="BiLSTM-CRF named-entity recognition")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON run configuration")
    p.add_argument("--config", required=True, help="JSON file with corpus paths, embeddings and overrides")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--report", help="write the epoch report as JSON lines")
    p.add_argument("--checkpoints", help="directory for per-epoch checkpoints")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="score a prediction file against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--format", choices=("germeval", "conll"), default="germeval")
    p.add_argument("--level", choices=("outer", "inner", "combined"), default="outer")
    p.add_argument("--strict", action="store_true", help="discard stray I- chunks instead of opening new ones")
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("predict", help="label space-tokenized sentences from stdin, one per line")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("serve", help="run the JSON inference service")
    p.add_argument("--registry", required=True, help="JSON registry of models to expose")
    p.add_argument("--bind", help=f"bind address (or ${ENV_BIND})")
    p.add_argument("--port", type=int, help=f"port (or ${ENV_PORT})")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("split-oov", help="split a corpus by embedding vocabulary coverage")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("germeval", "conll"), default="germeval")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=_cmd_split_oov)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CorpusError, EmbeddingError, EvaluationError, ModelError, ModelFormatError, TrainingError,
            ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
