"""Corpus I/O: report JSONL and label CSV, with lossless round-trips.

Formats:
  report-jsonl  one JSON object per line, keys: study_id (required),
                impression (required), indication (default ""),
                findings (optional).
  label-csv     header ``study_id,<14 condition names in canonical order>``,
                cells 1.0 / 0.0 / -1.0 / empty.

All writes are atomic (temp file in the target directory, then rename).

The checks every loader shares are here: ``load_json`` (shipped files
too), ``expect`` for a JSON value's shape, ``http_url`` for a URL.
"""

from __future__ import annotations

import csv
import io
import json
import os
import reprlib
from contextlib import contextmanager
from importlib import resources
from typing import Callable, Iterable, Mapping, TypeVar
from urllib.parse import quote, urlsplit

from .errors import InputError
from .model import CONDITIONS, LabelValue, LabelVector, Report

_T = TypeVar("_T")


def write_text_atomic(path: str, text: str) -> None:
    """Write text to ``path`` so that no partial file is ever visible."""
    write_chunks_atomic(path, (text,))


def write_chunks_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the concatenated ``chunks`` to ``path``, each into a temp file
    as it comes, so that no partial file is ever visible: if a chunk raises,
    the path is left as it was.

    The file gets the mode ``open`` would give it: 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string",
               int: "an integer"}


def expect(value, kind: type, what: str):
    """``value`` if it is a JSON ``kind`` (dict, list, str or int, which
    takes neither true, false nor a float), else an InputError ``<what>
    must be an object|a list|a string|an integer, got <value>``, the value
    shortened by ``reprlib.repr``."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise InputError(f"{what} must be {_JSON_KINDS[kind]}, got "
                     f"{reprlib.repr(value)}")


def _report_from_obj(obj, where: str) -> Report:
    expect(obj, dict, f"{where}: report")
    for field in ("study_id", "impression"):
        if field not in obj:
            raise InputError(f"{where}: missing field {field!r}")
        expect(obj[field], str, f"{where}: field {field!r}")
    indication = expect(obj.get("indication", ""), str,
                        f"{where}: field 'indication'")
    findings = obj.get("findings")
    if findings is not None:
        expect(findings, str, f"{where}: field 'findings'")
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


def _decode(text: str, where: str, what: str = "JSON"):
    """``json.loads(text)``. A parse error, too deep a nesting included, is
    an InputError ``<where>: invalid <what>: <problem>``. An object field
    holding a lone surrogate, which no output could encode as UTF-8, is an
    InputError that names the field."""
    try:
        obj = json.loads(text)
        # Only a \u escape decodes to a lone surrogate.
        if isinstance(obj, dict) and "\\u" in text:
            for key, value in obj.items():
                try:
                    json.dumps([key, value], ensure_ascii=False).encode()
                except UnicodeEncodeError:
                    raise InputError(
                        f"{where}: field {key!r} holds a lone surrogate, "
                        f"which UTF-8 cannot encode") from None
        return obj
    except json.JSONDecodeError as exc:
        problem = exc.msg
    except RecursionError:
        problem = "nested too deeply"
    raise InputError(f"{where}: invalid {what}: {problem}")


def load_json(path: str, what: str, parse: Callable[[dict], _T]) -> _T:
    """``parse(obj)`` for the JSON object ``obj`` at ``path``. Every error,
    ``parse``'s included, names the file; ``what`` names the document."""
    with open_utf8(path) as handle:
        obj = _decode(handle.read(), path, f"{what} JSON")
    try:
        return parse(expect(obj, dict, what))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_packaged(name: str, what: str, parse: Callable[[dict], _T]) -> _T:
    """``load_json`` of the data file ``name`` shipped with the package."""
    data = resources.files(__package__) / "data" / name
    with resources.as_file(data) as path:
        return load_json(str(path), what, parse)


def http_url(text: str):
    """``text`` split by ``urlsplit`` if it is an ``http://`` or
    ``https://`` URL with a host and a valid port, else None."""
    try:
        url = urlsplit(text)
        url.port  # noqa: B018 -- raises ValueError for a port out of range
    except ValueError:
        return None
    return url if url.scheme in ("http", "https") and url.hostname else None


def request_target(text: str) -> str:
    """``text``, a URL or its path and query, with what may not go on an
    HTTP request line (non-ASCII text, spaces) percent-encoded."""
    return quote(text, safe="!#$%&'()*+,/:;=?@[]~")


def kind(declared: str) -> type:
    """The scalar type of a field annotated ``declared`` (a class
    annotation, read as text): int, float or str."""
    return int if "int" in declared else float if "float" in declared else str


def fits(declared: str, value) -> bool:
    """Whether a JSON value fits a field annotated ``declared``, as ``kind``
    reads it: an int takes integers, a float any number, a str strings,
    Optional null."""
    if value is None:
        return "Optional" in declared
    scalar = kind(declared)
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if scalar is float else scalar)


def lookup(mapping: Mapping[str, _T], study_id: str, what: str) -> _T:
    """``mapping[study_id]``, or an InputError saying ``what`` is missing."""
    try:
        return mapping[study_id]
    except KeyError:
        raise InputError(f"missing {what} for study_id {study_id!r}") from None


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
            obj = _decode(line, where)
            report = _report_from_obj(obj, where)
            if report.study_id in seen:
                raise InputError(
                    f"{where}: duplicate study_id {report.study_id!r}")
            seen.add(report.study_id)
            reports.append(report)
    return reports


def write_jsonl(path: str, records: Iterable[dict],
                sort_keys: bool = False) -> None:
    """Write one JSON object per line."""
    write_text_atomic(path, "".join(
        json.dumps(record, ensure_ascii=False, sort_keys=sort_keys) + "\n"
        for record in records))


def write_reports_jsonl(reports: Iterable[Report], path: str) -> None:
    write_jsonl(path, (
        {"study_id": r.study_id, "indication": r.indication,
         "impression": r.impression}
        | ({} if r.findings is None else {"findings": r.findings})
        for r in reports))


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


def write_labels_csv(labels: Mapping[str, LabelVector], path: str) -> None:
    write_text_atomic(path, csv_text([_LABEL_HEADER] + [
        [study_id] + [v.to_csv() for v in vector.values]
        for study_id, vector in labels.items()]))

