"""The ``key = value`` text grammar shared by config and scene files.

Each reader takes the caller's error class, so a bad config file raises
ConfigError and a bad scene file InvalidSceneError; both exit with 4.
"""

from __future__ import annotations


def read_text(path, error: type[Exception], what: str) -> str:
    """The file's UTF-8 text; an unreadable or undecodable file raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def key_values(text: str, error: type[Exception]):
    """Yield ``(lineno, key, value)`` per non-blank line.

    ``#`` starts a comment, keys are lower-cased, and both sides are
    stripped.  Which keys exist, and whether one may repeat, is the
    caller's business.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key.lower(), value


def numbers(text: str, n: int, what: str, error: type[Exception]) -> tuple[float, ...]:
    """Exactly ``n`` numbers separated by commas or whitespace."""
    parts = text.replace(",", " ").split()
    if len(parts) != n:
        raise error(f"{what} expects {n} numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise error(f"bad number in {what}: {text!r}") from exc
