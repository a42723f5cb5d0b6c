"""Property tests for the pipeline option table: every key is reachable
from a config file and a flag, and no text makes parsing or the range
check fail with anything but ConfigError; the README names exactly the
table's keys."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from despec import errors
from despec.cli import build_parser
from despec.pipeline import OPTIONS, _check_config, config_from_values, parse_config_text

KEYS = [opt.key for opt in OPTIONS]

# one line of text (no character str.splitlines breaks at) without a
# comment, plus the spellings the parsers know
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
ONE_LINE = st.one_of(
    st.text(st.characters(exclude_characters="#" + LINE_BREAKS), max_size=16),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["auto", "AUTO", "on", "off", "yes", "nan", "-inf", "1e400",
                     " 3 ", "0x10", "1_000", "9" * 5000]),
)


@pytest.mark.parametrize("key", KEYS)
@settings(max_examples=60)
@given(text=ONE_LINE)
def test_any_value_is_accepted_or_rejected_with_config_error(key, text):
    assert parse_config_text(f"{key} = {text}\n") == {key: text.strip()}
    try:
        cfg = config_from_values({key: text})
        _check_config(cfg)
    except errors.ConfigError:
        pass


@pytest.mark.parametrize("opt", OPTIONS, ids=KEYS)
def test_every_key_has_a_config_line_and_a_flag(opt):
    assert parse_config_text(f"{opt.key.upper()} = 1  # comment\n") == {opt.key: "1"}
    flag = "--" + opt.key.replace("_", "-")
    given_flag, expected = (flag, "on") if opt.switch else (f"{flag}=1", "1")
    parser = build_parser()
    for argv in (["remove", "in.pfm", "-d", "d.pfm", "-s", "s.pfm"],
                 ["bench", "--scene", "single-1"]):
        assert getattr(parser.parse_args(argv + [given_flag]), opt.key) == expected


def test_readme_lists_exactly_the_option_keys():
    """The README's "Config files" key list, its parenthetical notes
    left out, names each row of the option table once."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config files", 1)[1]
    keys = section.split("Keys:", 1)[1].split(". Each key", 1)[0]
    named = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", keys))
    assert sorted(named) == sorted(KEYS)
