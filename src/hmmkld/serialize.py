"""File formats: model documents, observation CSV, TSV reports, scores.

The model document is a plain-text key-value format::

    hmmkld-model v1
    states 3
    initial 0.5 0.25 0.25
    transition
    0.9 0.05 0.05
    0.1 0.8 0.1
    0.2 0.2 0.6
    emission gaussian_homoscedastic
    means -0.372 0.069 -0.068
    sigma 0.114

Emission tags are ``discrete`` (followed by ``symbols K`` and K-column
probability rows), ``gaussian_homoscedastic`` (``means`` + ``sigma``) and
``gaussian`` (``means`` + ``sigmas``). Floats are written with shortest
round-trip precision so rewriting a parsed document is byte-stable.
"""

import csv
import io
import json
from typing import Container, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .influence import InfluenceProfile, WindowInfluenceProfile
from .model import (
    DiscreteEmission,
    GaussianEmission,
    HmmModel,
    ModelError,
    ObservationSequence,
    check_count,
)
from .outliers import ReplicateKey, ScoredReplicate, check_deltas

MODEL_HEADER = "hmmkld-model v1"


class DataFormatError(ValueError):
    """Malformed input file; message carries the offending line number."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_row(row) -> str:
    return " ".join(_fmt(v) for v in row)


def dump_model(model: HmmModel) -> str:
    lines = [MODEL_HEADER, f"states {model.num_states}"]
    lines.append("initial " + _fmt_row(model.initial))
    lines.append("transition")
    for row in model.transition:
        lines.append(_fmt_row(row))
    em = model.emission
    if isinstance(em, DiscreteEmission):
        lines.append("emission discrete")
        lines.append(f"symbols {em.num_symbols}")
        for row in em.table:
            lines.append(_fmt_row(row))
    elif em.is_homoscedastic:
        lines.append("emission gaussian_homoscedastic")
        lines.append("means " + _fmt_row(em.means))
        lines.append("sigma " + _fmt(em.sigmas[0]))
    else:
        lines.append("emission gaussian")
        lines.append("means " + _fmt_row(em.means))
        lines.append("sigmas " + _fmt_row(em.sigmas))
    return "\n".join(lines) + "\n"


def write_model(model: HmmModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_model(model))


class _LineReader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> Tuple[int, str]:
        while self.pos < len(self.lines):
            self.pos += 1
            line = self.lines[self.pos - 1].strip()
            if line and not line.startswith("#"):
                return self.pos, line
        raise DataFormatError(f"line {self.pos + 1}: unexpected end of model document")

    def count(self, keyword: str, symbol: str) -> int:
        """The next line as ``<keyword> <symbol>``, an integer >= 1."""
        lineno, line = self.next()
        if not line.startswith(keyword + " "):
            raise DataFormatError(f"line {lineno}: expected '{keyword} <{symbol}>'")
        noun = keyword[:-1]  # "state", "symbol"
        try:
            value = int(line.split()[1])
            check_count(f"{noun} count", value)
        except ModelError as exc:  # a ValueError too, so caught first
            raise DataFormatError(f"line {lineno}: {exc}")
        except ValueError:
            raise DataFormatError(f"line {lineno}: {noun} count is not an integer")
        return value

    def floats(self, count: int, what: str, keyword: bool = False) -> np.ndarray:
        """The next line as ``count`` numbers; with ``keyword`` the line
        must start with the word ``what``, which is not counted."""
        lineno, line = self.next()
        parts = line.split()
        if keyword:
            if parts[0] != what:
                raise DataFormatError(f"line {lineno}: expected '{what}' row")
            parts = parts[1:]
        try:
            values = np.array([float(p) for p in parts])
        except ValueError:
            raise DataFormatError(f"line {lineno}: {what}: not a number row")
        if values.size != count:
            raise DataFormatError(
                f"line {lineno}: {what}: expected {count} values, got {values.size}"
            )
        return values


def parse_model(text: str) -> HmmModel:
    reader = _LineReader(text)
    lineno, header = reader.next()
    if header != MODEL_HEADER:
        raise DataFormatError(f"line {lineno}: expected '{MODEL_HEADER}'")
    m = reader.count("states", "m")
    initial = reader.floats(m, "initial", keyword=True)
    lineno, line = reader.next()
    if line != "transition":
        raise DataFormatError(f"line {lineno}: expected 'transition' section")
    transition = np.vstack([reader.floats(m, "transition row") for _ in range(m)])
    lineno, line = reader.next()
    parts = line.split()
    if parts[0] != "emission" or len(parts) != 2:
        raise DataFormatError(f"line {lineno}: expected 'emission <type>'")
    tag = parts[1]
    if tag == "discrete":
        k = reader.count("symbols", "k")
        table = np.vstack([reader.floats(k, "emission row") for _ in range(m)])
        emission = DiscreteEmission(table)
    elif tag == "gaussian_homoscedastic":
        means = reader.floats(m, "means", keyword=True)
        sigma = reader.floats(1, "sigma", keyword=True)
        emission = GaussianEmission.homoscedastic(means, sigma[0])
    elif tag == "gaussian":
        means = reader.floats(m, "means", keyword=True)
        sigmas = reader.floats(m, "sigmas", keyword=True)
        emission = GaussianEmission(means, sigmas)
    else:
        raise DataFormatError(f"line {lineno}: unknown emission type {tag!r}")
    return HmmModel(initial, transition, emission)


def read_model(path) -> HmmModel:
    with open(path) as fh:
        return parse_model(fh.read())


def read_observations(path) -> ObservationSequence:
    with open(path) as fh:
        return parse_observations_csv(fh.read(), source=str(path))


def parse_observations_csv(text: str, source: str = "<csv>") -> ObservationSequence:
    """CSV with an optional header and either (label, value) or value rows."""
    rows = list(csv.reader(io.StringIO(text)))
    rows = [(i + 1, row) for i, row in enumerate(rows) if any(f.strip() for f in row)]
    if not rows:
        raise DataFormatError(f"{source}: no data rows")
    labels: Optional[List[str]] = None
    values: List[float] = []
    start = 0
    first = rows[0][1]
    try:
        float(first[-1])
    except ValueError:
        start = 1  # header row
        if len(rows) == 1:
            raise DataFormatError(f"{source}: no data rows after header")
    width = len(rows[start][1])
    if width not in (1, 2):
        raise DataFormatError(
            f"{source}: line {rows[start][0]}: expected 1 or 2 columns, got {width}"
        )
    if width == 2:
        labels = []
    for lineno, row in rows[start:]:
        if len(row) != width:
            raise DataFormatError(
                f"{source}: line {lineno}: expected {width} columns, got {len(row)}"
            )
        raw = row[-1].strip()
        try:
            value = float(raw)
        except ValueError:
            raise DataFormatError(f"{source}: line {lineno}: not a number: {raw!r}")
        if not np.isfinite(value):
            raise DataFormatError(f"{source}: line {lineno}: not a finite number: {raw!r}")
        values.append(value)
        if labels is not None:
            labels.append(row[0].strip())
    return ObservationSequence(np.array(values), labels=labels)


def tsv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Tab-separated table: the header line, then one line per row. Floats
    are written with shortest round-trip precision, other fields with str."""
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def influence_tsv(profile: InfluenceProfile, labels: Sequence[str]) -> str:
    """TSV with columns label, K, p_loo_1..m, p_post_1..m; one label per
    observation."""
    m = profile.marginals.shape[1]
    header = (
        ["label", "K"]
        + [f"p_loo_{s + 1}" for s in range(m)]
        + [f"p_post_{s + 1}" for s in range(m)]
    )
    rows = zip(labels, profile.k, profile.loo_marginals, profile.marginals)
    return tsv(header, ([label, k, *loo, *post] for label, k, loo, post in rows))


def window_influence_tsv(profile: WindowInfluenceProfile, labels: Sequence[str]) -> str:
    """TSV with columns label, K; ``labels`` has one label per observation,
    and a window's row carries the label of its first observation."""
    return tsv(["label", "K"], zip(labels, profile.k))


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_count(v) -> bool:
    """An index by ``check_count``'s rule: an integer >= 0."""
    try:
        check_count("index", v, least=0)
    except ModelError:
        return False
    return True


# Scores-file field -> (ScoredReplicate attribute, check of the JSON value).
# The first three fields form the key and have no attribute.
_RECORD_FIELDS = {
    "hypothesis": (None, lambda v: v in ("H0", "H1")),
    "delta": (None, lambda v: v is None or _is_real(v)),
    "replicate": (None, _is_count),
    "t_kld": ("t_kld", _is_real),
    "s_z": ("s_z", _is_real),
    "l_lof": ("l_lof", _is_real),
    "outliers": ("outlier_positions", lambda v: isinstance(v, list) and all(map(_is_count, v))),
    "resampled": ("resampled", _is_count),
    "z_degenerate": ("z_degenerate", lambda v: isinstance(v, bool)),
    "lof_clipped": ("lof_clipped", lambda v: isinstance(v, bool)),
}


def replicate_record(key: ReplicateKey, rep: ScoredReplicate) -> str:
    """One scores-file line, newline included, for the replicate ``key``."""
    record = dict(zip(_RECORD_FIELDS, key))
    for name, (attr, _) in _RECORD_FIELDS.items():
        if attr:
            record[name] = getattr(rep, attr)
    return json.dumps(record, sort_keys=True) + "\n"


def parse_replicate_records(
    text: str, source: str = "<scores>", keys: Optional[Container[ReplicateKey]] = None
) -> Dict[ReplicateKey, ScoredReplicate]:
    """Replicates of a scores file keyed by (hypothesis, delta, replicate),
    in file order. A line that is not a record, a missing or mistyped field,
    a delta that ``check_deltas`` refuses, a repeated key and, when ``keys``
    is given, a key not in it are ``DataFormatError``s naming the line."""
    records: Dict[ReplicateKey, ScoredReplicate] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        where = f"{source}: line {lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            raise DataFormatError(f"{where}: invalid JSON")
        if not isinstance(rec, dict):
            raise DataFormatError(f"{where}: not a JSON object")
        for name, (_, ok) in _RECORD_FIELDS.items():
            if name not in rec:
                raise DataFormatError(f"{where}: missing field {name!r}")
            if not ok(rec[name]):
                raise DataFormatError(f"{where}: bad {name!r}: {rec[name]!r}")
        hypothesis, delta = rec["hypothesis"], rec["delta"]
        if (hypothesis == "H0") != (delta is None):
            raise DataFormatError(f"{where}: {hypothesis} record with delta {delta!r}")
        if delta is not None:
            try:
                (delta,) = check_deltas("delta", [delta])
            except ModelError as exc:
                raise DataFormatError(f"{where}: {exc}")
        key = (hypothesis, delta, rec["replicate"])
        if key in records:
            raise DataFormatError(f"{where}: repeats replicate {key}")
        if keys is not None and key not in keys:
            raise DataFormatError(f"{where}: replicate {key} is not one this run writes")
        fields = {attr: rec[name] for name, (attr, _) in _RECORD_FIELDS.items() if attr}
        records[key] = ScoredReplicate(**fields)
    return records
