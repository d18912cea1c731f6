"""Corpus I/O: report JSONL and label CSV, with lossless round-trips.

Formats:
  report-jsonl  one JSON object per line, keys: study_id (required),
                impression (required), indication (default ""),
                findings (optional).
  label-csv     header ``study_id,<14 condition names in canonical order>``,
                cells 1.0 / 0.0 / -1.0 / empty.

All writes are atomic (temp file in the target directory, then rename).
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import contextmanager
from typing import Callable, Iterable, Mapping, TypeVar

from .errors import InputError
from .model import CONDITIONS, LabelValue, LabelVector, Report

_T = TypeVar("_T")


def write_text_atomic(path: str, text: str) -> None:
    """Write text to ``path`` so that no partial file is ever visible.

    The file gets the mode ``open`` would give it: 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _report_from_obj(obj: dict, where: str) -> Report:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected a JSON object")
    for field in ("study_id", "impression"):
        if field not in obj:
            raise InputError(f"{where}: missing field {field!r}")
        if not isinstance(obj[field], str):
            raise InputError(f"{where}: field {field!r} must be a string")
    indication = obj.get("indication", "")
    if not isinstance(indication, str):
        raise InputError(f"{where}: field 'indication' must be a string")
    findings = obj.get("findings")
    if findings is not None and not isinstance(findings, str):
        raise InputError(f"{where}: field 'findings' must be a string")
    return Report(study_id=obj["study_id"], impression=obj["impression"],
                  indication=indication, findings=findings)


@contextmanager
def open_utf8(path: str, newline=None):
    """Open ``path`` for reading; undecodable bytes raise InputError."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8: {exc.reason}") from None


def load_json(path: str, what: str, parse: Callable[[dict], _T]) -> _T:
    """``parse(obj)`` for the JSON object ``obj`` at ``path``. Every error,
    ``parse``'s included, names the file; ``what`` names the document."""
    with open_utf8(path) as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid {what} JSON: {exc.msg}") \
                from None
    if not isinstance(obj, dict):
        raise InputError(f"{path}: {what} must be a JSON object")
    try:
        return parse(obj)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def fits(declared: str, value) -> bool:
    """Whether a JSON value fits a dataclass field annotated ``declared``: an
    int takes integers, a float any number, a str strings, Optional null."""
    if value is None:
        return "Optional" in declared
    kind = (int if "int" in declared else (int, float) if "float" in declared
            else str)
    return not isinstance(value, bool) and isinstance(value, kind)


def write_json(path: str, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys."""
    write_text_atomic(path, json.dumps(obj, ensure_ascii=False,
                                       sort_keys=True, indent=2) + "\n")


def read_reports_jsonl(path: str) -> list[Report]:
    reports: list[Report] = []
    seen: set[str] = set()
    with open_utf8(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{where}: invalid JSON: {exc.msg}") from None
            report = _report_from_obj(obj, where)
            if report.study_id in seen:
                raise InputError(
                    f"{where}: duplicate study_id {report.study_id!r}")
            seen.add(report.study_id)
            reports.append(report)
    return reports


def reports_jsonl_text(reports: Iterable[Report]) -> str:
    lines = []
    for report in reports:
        obj = {"study_id": report.study_id, "indication": report.indication,
               "impression": report.impression}
        if report.findings is not None:
            obj["findings"] = report.findings
        lines.append(json.dumps(obj, ensure_ascii=False))
    return "".join(line + "\n" for line in lines)


def write_reports_jsonl(reports: Iterable[Report], path: str) -> None:
    write_text_atomic(path, reports_jsonl_text(reports))


_LABEL_HEADER = ["study_id"] + [c.value for c in CONDITIONS]


def read_labels_csv(path: str) -> dict[str, LabelVector]:
    with open_utf8(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty label CSV") from None
        _check_label_header(path, header)
        labels: dict[str, LabelVector] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) != len(_LABEL_HEADER):
                raise InputError(
                    f"{where}: expected {len(_LABEL_HEADER)} cells, "
                    f"got {len(row)}")
            study_id = row[0]
            if study_id in labels:
                raise InputError(f"{where}: duplicate study_id {study_id!r}")
            values = []
            for condition, cell in zip(CONDITIONS, row[1:]):
                try:
                    values.append(LabelValue.from_csv(cell))
                except ValueError as exc:
                    raise InputError(
                        f"{where}: column {condition.value!r}: {exc}") from None
            try:
                labels[study_id] = LabelVector(tuple(values))
            except ValueError as exc:
                raise InputError(f"{where}: {exc}") from None
    return labels


def _check_label_header(path: str, header: list[str]) -> None:
    if header == _LABEL_HEADER:
        return
    missing = [name for name in _LABEL_HEADER if name not in header]
    unknown = [name for name in header if name not in _LABEL_HEADER]
    if missing:
        raise InputError(f"{path}: missing condition column: "
                         f"{', '.join(missing)}")
    if unknown:
        raise InputError(f"{path}: unknown condition column: "
                         f"{', '.join(unknown)}")
    raise InputError(f"{path}: label columns out of canonical order")


def csv_text(rows: Iterable[Iterable]) -> str:
    """``rows`` as CSV text with ``\\n`` line endings."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def labels_csv_text(labels: Mapping[str, LabelVector]) -> str:
    return csv_text([_LABEL_HEADER] + [
        [study_id] + [v.to_csv() for v in vector.values]
        for study_id, vector in labels.items()])


def write_labels_csv(labels: Mapping[str, LabelVector], path: str) -> None:
    write_text_atomic(path, labels_csv_text(labels))

