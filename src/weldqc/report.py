"""Report emission: atomically written, reproducible text artifacts.

Every file starts with (or embeds, for JSON/SVG) the command name, the fully
resolved configuration, the seed, and the library version.  Numeric text is
fixed at six decimal places, so re-running the recorded configuration
reproduces each file byte for byte.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__

DECIMALS = 6


def fmt(value) -> str:
    """Canonical text form: floats at six decimals, everything else as str."""
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        return f"{value:.{DECIMALS}f}"
    return str(value)


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
    rows: Sequence[Sequence],
    info: Mapping,
    delimiter: str = ",",
) -> None:
    lines = _meta_comment_lines(info)
    lines.append(delimiter.join(header))
    for row in rows:
        lines.append(delimiter.join(fmt(cell) for cell in row))
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
