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
import tempfile
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__

DECIMALS = 6


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
    specs = (f"%.{DECIMALS}f" if issubclass(kind, float) else "%s" for kind in kinds)
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
    """Recursively round floats so JSON output is byte-stable."""
    if isinstance(obj, float):
        return round(obj, DECIMALS)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def meta(command: str, config: Mapping, seed) -> dict:
    return {
        "command": command,
        "config": round_floats(dict(sorted(config.items()))),
        "seed": seed,
        "version": __version__,
    }


def _meta_comment_lines(info: Mapping) -> list[str]:
    config_json = json.dumps(info["config"], sort_keys=True, separators=(",", ":"))
    return [
        f"# command: {info['command']}",
        f"# config: {config_json}",
        f"# seed: {info['seed']}",
        f"# version: {info['version']}",
    ]


def write_text(path: Path, text: str) -> None:
    """Write via a temp file in the same directory, then atomic rename.

    mkstemp creates the file with mode 0600 whatever the umask, so the mode
    an ordinary `open` would give is set before the rename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def write_table(
    path: Path,
    header: Sequence[str],
    rows: Iterable[Iterable],
    info: Mapping,
) -> None:
    """Meta comment lines, the header, then one line per row of any iterable."""
    lines = _meta_comment_lines(info)
    lines.append(_format_row(header))
    lines.extend(map(_format_row, rows))
    write_text(path, "\n".join(lines) + "\n")


def write_json(path: Path, payload: Mapping, info: Mapping) -> None:
    document = {"meta": info}
    document.update(round_floats(dict(payload)))
    write_text(path, json.dumps(document, sort_keys=True, indent=2) + "\n")


def write_svg(path: Path, svg: str, info: Mapping) -> None:
    comment = "<!-- " + " | ".join(
        line.lstrip("# ") for line in _meta_comment_lines(info)
    ) + " -->\n"
    write_text(path, comment + svg)
