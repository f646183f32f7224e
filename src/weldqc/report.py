"""Report emission: atomically written, reproducible text artifacts.

Every file starts with (or embeds, for JSON/SVG) the command name, the fully
resolved configuration, the seed, and the library version.  Numeric text is
fixed at six decimal places, so re-running the recorded configuration
reproduces each file byte for byte.  A text cell that holds a comma, a double
quote or a line break is quoted as RFC 4180 does, so every table reads back
with a CSV reader.
"""

from __future__ import annotations

import functools
import json
import os
import re
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__

DECIMALS = 6
#: the `%` format of a float cell
_FLOAT = f"%.{DECIMALS}f"
_UNITS = 10**DECIMALS
#: cells per block of `matrix_lines`: its transient arrays are a few bytes per cell
_BLOCK_CELLS = 16384
#: below 10, v * 1e6 is within 1e-9 of its exact value; a scaled cell this close
#: to a half unit may round either way, so _FLOAT decides it
_TIE = 1e-8


#: bool and None cells are written as their JSON text, not as Python spells them
_WORDS = {True: "true", False: "false", None: "null"}
#: a text cell holding one of these is quoted
_NEEDS_QUOTES = re.compile('[,"\r\n]')


@functools.lru_cache(maxsize=256)
def _template(kinds: tuple[type, ...]) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """The `%` template of a row of cells of these types, where its words go
    and where its text cells are.

    A float (or subclass, such as numpy's float64) takes six decimals; a bool
    or None is replaced by its word from _WORDS; anything else is its `str`.
    """
    specs = (_FLOAT if issubclass(kind, float) else "%s" for kind in kinds)
    words = tuple(i for i, kind in enumerate(kinds) if kind is bool or kind is type(None))
    texts = tuple(i for i, kind in enumerate(kinds) if issubclass(kind, str))
    return ",".join(specs), words, texts


def _quote(text: str) -> str:
    """The cell as RFC 4180 writes it: quoted, inner quotes doubled, if it must be."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_row(row: Iterable) -> str:
    """A row's cells in canonical text form, comma-separated, in one `%` call."""
    cells = tuple(row)
    template, words, texts = _template(tuple(map(type, cells)))
    if words or any(_NEEDS_QUOTES.search(cells[i]) for i in texts):
        cells = tuple(
            _WORDS[c] if i in words else _quote(c) if i in texts else c
            for i, c in enumerate(cells)
        )
    return template % cells


def fmt(value) -> str:
    """Canonical text form of one cell: the one-cell row of `_format_row`."""
    return _format_row((value,))


def round_floats(obj):
    """Recursively round floats so JSON output is byte-stable.

    A NamedTuple record becomes the mapping of its `_asdict()`, so its field
    names reach the JSON; any other tuple becomes a list.
    """
    if isinstance(obj, float):
        return round(obj, DECIMALS)
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def meta(command: str, config: Mapping, seed) -> dict:
    return {
        "command": command,
        "config": round_floats(config),
        "seed": seed,
        "version": __version__,
    }


def _meta_comment_lines(info: Mapping) -> list[str]:
    config_json = json.dumps(info["config"], sort_keys=True, separators=(",", ":"))
    return [
        f"# command: {info['command']}",
        f"# config: {config_json}",
        f"# seed: {json.dumps(info['seed'])}",
        f"# version: {info['version']}",
    ]


def _block_text(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of a block of cells as 'd.dddddd,' per cell in one uint8 array,
    and a mask of the cells whose text that is.

    A cell v in [0, 10) is rounded as rint(v * 1e6) and its digits are taken
    with integer arithmetic.  The mask leaves out every cell whose rounding
    that cannot prove: a scaled cell within _TIE of a half unit, NaN, an
    infinity, a negative value, -0.0 and a value that rounds to 10 or more.
    """
    fits = (block >= 0.0) & (block < 10.0) & ~np.signbit(block)
    scaled = np.where(fits, block, 0.0) * _UNITS
    units = np.rint(scaled)
    fits &= (units < 10 * _UNITS) & (np.abs(np.abs(scaled - units) - 0.5) > _TIE)
    units = units.astype(np.uint32)  # below 10**7
    text = np.empty(block.shape + (DECIMALS + 3,), dtype=np.uint8)
    text[..., 1] = ord(".")
    text[..., -1] = ord(",")
    for place in range(DECIMALS + 1, 1, -1):
        tens = units // 10
        text[..., place] = units - 10 * tens + ord("0")
        units = tens
    text[..., 0] = units + ord("0")
    return text.reshape(len(block), -1), fits


def matrix_lines(labels: Sequence, values: np.ndarray) -> Iterator[str]:
    """The CSV line of each matrix row: `_format_row([label] + row.tolist())`.

    The cells are formatted a block of rows at a time by `_block_text`, so
    its arrays stay small next to the matrix; _FLOAT writes each cell outside
    its mask.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = list(labels)
    step = max(1, _BLOCK_CELLS // values.shape[1])
    for start in range(0, len(values), step):
        block = values[start : start + step]
        text, fits = _block_text(block)
        for label, row, row_text, row_fits in zip(labels[start:], block, text, fits):
            cells = row_text[:-1].tobytes().decode("ascii")
            if not row_fits.all():
                cells = cells.split(",")
                for j in np.flatnonzero(~row_fits):
                    cells[j] = _FLOAT % row[j]
                cells = ",".join(cells)
            yield fmt(label) + "," + cells


def write_text(path: Path, text: str) -> None:
    """Write via a new temp file in the same directory, then atomic rename.

    The temp file is created with mode 0666, so the kernel applies the umask
    (or the directory's default ACL) exactly as it does for a plain `open`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_table(
    path: Path,
    header: Sequence[str],
    rows: Iterable[Iterable],
    info: Mapping,
) -> None:
    """Meta comment lines, the header, then one line per row of any iterable.

    A row that is a str is taken as its line, already formatted (as
    `matrix_lines` yields them); any other row is a sequence of cells.
    """
    lines = _meta_comment_lines(info)
    lines.append(_format_row(header))
    lines.extend(row if isinstance(row, str) else _format_row(row) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


def write_json(path: Path, payload: Mapping | tuple, info: Mapping) -> None:
    """The payload, a mapping or a NamedTuple record, with "meta" beside its keys."""
    document = {"meta": info, **round_floats(payload)}
    write_text(path, json.dumps(document, sort_keys=True, indent=2) + "\n")


def write_svg(path: Path, svg: str, info: Mapping) -> None:
    """The SVG after one XML comment holding the meta lines.

    XML forbids "--" in a comment, and only the config JSON can hold it: the
    second "-" of each is written as the JSON escape \\u002d, which decodes to
    the same config.
    """
    text = " | ".join(line.lstrip("# ") for line in _meta_comment_lines(info))
    comment = "<!-- " + text.replace("--", "-\\u002d") + " -->\n"
    write_text(path, comment + svg)
