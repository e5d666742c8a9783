"""File formats: task triplets, checkpoints, reports, training logs.

Tasks use BEIR-style files so user-supplied datasets drop in unchanged:
queries.jsonl {"_id", "text"}, corpus.jsonl {"_id", "title", "text"}, and a
tab-separated qrels.tsv (query-id, doc-id, score) with a header row; BEIR's own
header spelling, ``corpus-id`` for ``doc-id``, is read too.

Checkpoints are a versioned binary dump: magic, header length, a canonical
JSON header (config, extension, tensor manifest), then raw little-endian
tensor bytes in manifest order. Saving a loaded checkpoint reproduces the
original file byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .encoder import Model, ModelConfig, PosExtension
from .errors import ConfigurationError, ParseError, read_text
from .evaluation import EvalReport
from .synth import RetrievalTask

QUERIES_FILE = "queries.jsonl"
CORPUS_FILE = "corpus.jsonl"
QRELS_FILE = "qrels.tsv"
QRELS_HEADER = "query-id\tdoc-id\tscore"
# Headers a qrels file may open with: the one written here and BEIR's.
QRELS_HEADERS = (QRELS_HEADER, "query-id\tcorpus-id\tscore")

_CKPT_MAGIC = b"LCX1"
_CKPT_VERSION = 1


# ---------------------------------------------------------------------------
# retrieval task triplets


def write_task(task: RetrievalTask, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / QUERIES_FILE, "w", encoding="utf-8") as fh:
        for qid in sorted(task.queries):
            fh.write(json.dumps({"_id": qid, "text": task.queries[qid]},
                                ensure_ascii=False) + "\n")
    with open(out / CORPUS_FILE, "w", encoding="utf-8") as fh:
        for did in sorted(task.docs):
            fh.write(json.dumps({"_id": did, "title": "", "text": task.docs[did]},
                                ensure_ascii=False) + "\n")
    with open(out / QRELS_FILE, "w", encoding="utf-8") as fh:
        fh.write(QRELS_HEADER + "\n")
        for qid in sorted(task.qrels):
            for did in sorted(task.qrels[qid]):
                fh.write(f"{qid}\t{did}\t{task.qrels[qid][did]}\n")


def _read_jsonl(path: Path) -> dict[str, dict]:
    """Rows of a task JSONL file by ``_id``.

    Each line must be a JSON object with an ``_id`` not seen before and a
    string ``text``; a ``title``, where present, must be a string too.
    """
    rows: dict[str, dict] = {}
    for lineno, line in enumerate(read_text(path, ParseError).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise ParseError(f"{path}:{lineno}: expected a JSON object, got {line[:40]}")
        for key in ("_id", "text"):
            if key not in obj:
                raise ParseError(f"{path}:{lineno}: missing field {key!r}")
        for key in ("text", "title"):
            if key in obj and not isinstance(obj[key], str):
                raise ParseError(f"{path}:{lineno}: field {key!r} must be a string, "
                                 f"got {json.dumps(obj[key])[:40]}")
        rid = str(obj["_id"])
        if rid in rows:
            raise ParseError(f"{path}:{lineno}: repeated _id {rid!r}")
        rows[rid] = obj
    return rows


def _read_qrels(path: Path) -> dict[str, dict[str, int]]:
    """Judgments by query and document id; line 1 must be one of ``QRELS_HEADERS``."""
    qrels: dict[str, dict[str, int]] = {}
    header, *lines = read_text(path, ParseError).split("\n")
    if header not in QRELS_HEADERS:
        expected = " or ".join(repr(h) for h in QRELS_HEADERS)
        raise ParseError(f"{path}:1: expected the header {expected}, got {header[:40]!r}")
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 tab-separated columns")
        qid, did, score = parts
        try:
            rel = int(score)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer score {score!r}") from exc
        if did in qrels.setdefault(qid, {}):
            raise ParseError(f"{path}:{lineno}: repeated judgment for {qid!r} {did!r}")
        qrels[qid][did] = rel
    return qrels


def load_task(
    queries_path: str | Path,
    corpus_path: str | Path,
    qrels_path: str | Path,
    *,
    name: str = "task",
) -> RetrievalTask:
    """Parse a task triplet; ``RetrievalTask`` refuses dangling ids and unjudged queries."""
    queries = {qid: row["text"] for qid, row in _read_jsonl(Path(queries_path)).items()}
    docs = {}
    for did, row in _read_jsonl(Path(corpus_path)).items():
        title, text = row.get("title", ""), row["text"]
        docs[did] = f"{title} {text}".strip() if title else text
    qrels = _read_qrels(Path(qrels_path))
    return RetrievalTask(name=name, queries=queries, docs=docs, qrels=qrels)


def load_task_dir(task_dir: str | Path) -> RetrievalTask:
    """The task in a ``write_task`` directory, named after the directory."""
    d = Path(task_dir)
    return load_task(d / QUERIES_FILE, d / CORPUS_FILE, d / QRELS_FILE, name=d.name)


def task_stats(task: RetrievalTask) -> dict:
    """Counts and mean word lengths, for comparison with published statistics."""
    q_words = [len(t.split()) for t in task.queries.values()]
    d_words = [len(t.split()) for t in task.docs.values()]
    return {
        "name": task.name,
        "n_queries": len(task.queries),
        "n_docs": len(task.docs),
        "mean_query_words": sum(q_words) / len(q_words) if q_words else 0.0,
        "mean_doc_words": sum(d_words) / len(d_words) if d_words else 0.0,
    }


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Model, path: str | Path) -> None:
    """Write ``model``, or raise ConfigurationError before any file is made when
    ``model.check()`` fails: its ``params`` dict may have been edited since it was made."""
    model.check()
    tensors = [(name, model.params[name]) for name in sorted(model.params)]
    if model.extension is not None:
        tensors.append(("__pos_frozen__", model.extension.frozen.astype(np.uint8)))
    header = {
        "format_version": _CKPT_VERSION,
        "tool_version": __version__,
        "config": dataclasses.asdict(model.config),
        "extension": None if model.extension is None else dataclasses.asdict(model.extension),
        "tensors": [
            {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}
            for name, arr in tensors
        ],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<IQ", _CKPT_VERSION, len(blob)))
        fh.write(blob)
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr).tobytes())


def _header_dataclass(path, cls, values, part: str):
    """``cls(**values)``, with every key a field of ``cls``; its own checks become ParseError."""
    if not isinstance(values, dict):
        raise ParseError(f"{path}: checkpoint {part} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in values:
        if key not in fields:
            raise ParseError(f"{path}: unknown checkpoint {part} key {key!r}")
    missing = [name for name, f in fields.items()
               if name not in values and f.default is dataclasses.MISSING]
    if missing:
        raise ParseError(f"{path}: checkpoint {part} lacks {missing}")
    try:
        return cls(**values)
    except ConfigurationError as exc:
        raise ParseError(f"{path}: checkpoint {part}: {exc}") from exc


def _tensor_layout(path, entry) -> tuple[np.dtype, tuple[int, ...]]:
    """A manifest entry's dtype and non-negative integer shape."""
    if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("dtype"), str) and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"])):
        raise ParseError(f"{path}: bad checkpoint tensor entry {json.dumps(entry)}")
    try:
        dtype = np.dtype(entry["dtype"])
    except TypeError as exc:
        raise ParseError(f"{path}: tensor {entry['name']} has unknown dtype "
                         f"{entry['dtype']!r}") from exc
    return dtype, tuple(entry["shape"])


def load_checkpoint(path: str | Path) -> Model:
    """Read a ``save_checkpoint`` file; a truncated or corrupt one raises ParseError.

    Parameters must be little-endian float64, and ``Model.check`` judges
    their layout; its ConfigurationError becomes a ParseError naming the path.
    The ``__pos_frozen__`` flags (uint8) may be absent; where present they
    need an extension and must equal its ``frozen`` flags.
    """
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size

        def read(size, part):  # bounded, so a garbled size never allocates or overruns
            if size > end - fh.tell():
                raise ParseError(f"{path}: checkpoint truncated inside the {part}")
            return fh.read(size)

        magic = fh.read(4)
        if magic != _CKPT_MAGIC:
            raise ParseError(f"{path}: not a checkpoint (bad magic {magic!r})")
        version, blob_len = struct.unpack("<IQ", read(12, "file header"))
        if version != _CKPT_VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {version}")
        try:
            header = json.loads(read(blob_len, "JSON header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path}: corrupt checkpoint JSON header ({exc})") from exc
        if not isinstance(header, dict):
            raise ParseError(f"{path}: checkpoint JSON header must be an object")
        missing = [key for key in ("config", "extension", "tensors") if key not in header]
        if missing:
            raise ParseError(f"{path}: checkpoint JSON header lacks {missing}")
        config = _header_dataclass(path, ModelConfig, header["config"], "config")
        extension = None
        if header["extension"] is not None:
            extension = _header_dataclass(path, PosExtension, header["extension"], "extension")
        if not isinstance(header["tensors"], list):
            raise ParseError(f"{path}: checkpoint tensor manifest must be a list")
        params: dict[str, np.ndarray] = {}
        for entry in header["tensors"]:
            dtype, shape = _tensor_layout(path, entry)
            if entry["name"] in params:
                raise ParseError(f"{path}: repeated checkpoint tensor {entry['name']}")
            need = np.dtype(np.uint8 if entry["name"] == "__pos_frozen__" else "<f8")
            if dtype != need:
                raise ParseError(f"{path}: tensor {entry['name']} has dtype {dtype}, "
                                 f"expected {need}")
            data = read(math.prod(shape) * dtype.itemsize, f"tensor {entry['name']}")
            params[entry["name"]] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
    frozen = params.pop("__pos_frozen__", None)
    if frozen is not None and extension is None:
        raise ParseError(f"{path}: __pos_frozen__ without an extension")
    try:
        model = Model(config=config, params=params, extension=extension)
    except ConfigurationError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if frozen is not None and not np.array_equal(frozen, extension.frozen):
        raise ParseError(f"{path}: __pos_frozen__ differs from the frozen rows of {extension}")
    return model


# ---------------------------------------------------------------------------
# reports and logs


def write_report(report: EvalReport, path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_training_log(log: list[tuple[int, float]], path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step\tloss\n")
        for step, loss in log:
            fh.write(f"{step}\t{loss:.10g}\n")
