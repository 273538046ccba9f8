"""The CLI contract, checked on runs drawn from each command's settings table.

Every run exits 0, 2, 3 or 4, and an error prints exactly one ``epiwave:``
line and no traceback.  A value outside its setting's domain exits 4 as a
flag and 2 as a config value, and the message names the flag or the key.  A
flag's value may be joined to it by '=' or passed as the next argument, and
both spellings give the same exit code, the same stderr and, under
--no-timestamp, the same bytes.  Only full flag names are accepted: a strict
prefix of a flag exits 4 in both spellings, with the same message.
"""
import contextlib
import datetime as dt
import io
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epiwave import cli
from epiwave.cli import (
    COMMANDS, CONFIG_KEYS, COUNT, CURVE_AXIS, GRID_AXIS, HORIZON, NONNEGATIVE, POSITIVE,
    build_parser, main,
)
from epiwave.series import DailyCountSeries, save_series

README = Path(__file__).resolve().parents[1] / "README.md"
TINY_GRID = ["--beta-grid", "0.2,0.3,2", "--eta-grid", "0.1,0.2,2",
             "--epsilon-grid", "3,3,1"]
UNKNOWN_KEYS = ("wave_idx", "bogus", "TOP_K", "input")
# One draw in four is bad, so that runs with every value good are common too.
RARELY = st.sampled_from([True, False, False, False])


@pytest.fixture(scope="module")
def base_argv(tmp_path_factory):
    """Inputs that let each command run; drawn settings are appended."""
    root = tmp_path_factory.mktemp("inputs")
    for year in range(2015, 2021):
        n = (dt.date(year + 1, 1, 1) - dt.date(year, 1, 1)).days
        values = 200.0 + 50.0 * np.sin(np.arange(n) / 9.0) * (year == 2020)
        save_series(DailyCountSeries(dt.date(year, 1, 1), values), root / f"{year}.csv")
    history = [a for year in range(2019, 2014, -1)
               for a in ("--history", str(root / f"{year}.csv"))]
    fit = ["fit", "--fixture", "triangle", *TINY_GRID]
    assert main(fit + ["--out", str(root), "--quiet", "--no-timestamp"]) == 0
    return {
        "excess": ["--reported", str(root / "2020.csv"), *history],
        "waves": ["--fixture", "triangle"],
        "fit": fit[1:],
        "forecast": ["--prior-report", str(root / "fit_report.csv")],
        "finalsize": [],
        "simulate": ["--days", "10"],
    }


def _text(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(map(_text, value))
    return repr(value) if isinstance(value, float) else str(value)


def in_domain(s):
    """Values of ``s`` inside its domain, small enough to run in milliseconds."""
    if isinstance(s.domain, tuple):
        return st.sampled_from(s.domain)
    # Steps that divide a day are drawn often enough for simulate to succeed.
    positive = st.sampled_from([0.05, 0.1, 0.25, 1.0]) | st.floats(0.01, 5.0)
    if s.domain == GRID_AXIS:
        axes = st.tuples(positive, positive, st.integers(1, 3))
        return axes.filter(lambda a: a[0] < a[1] or a[2] == 1).map(_text)
    if s.domain == CURVE_AXIS:
        axes = st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 8.0), st.integers(2, 3))
        return axes.filter(lambda a: a[0] < a[1]).map(_text)
    if s.parse is cli._parse_floats:
        return st.lists(st.floats(0.0, 1.0), max_size=6).map(_text)
    if s.parse is cli._DATE:
        return st.dates(dt.date(2019, 1, 1), dt.date(2023, 1, 1)).map(_text)
    if s.parse is int:
        ints = {COUNT: (1, 30), HORIZON: (14, 44), None: (-1, 1)}[s.domain]
        return st.integers(*ints).map(_text)
    floats = {POSITIVE: positive, NONNEGATIVE: st.floats(0.0, 5.0)}
    return floats.get(s.domain, st.floats(-5.0, 5.0)).map(_text)


def out_of_domain(s):
    """Text that does not parse as a value of ``s``, or lies outside its domain."""
    if isinstance(s.domain, tuple):
        return st.sampled_from(["bogus", s.domain[0].upper()])
    bad = {
        cli._parse_axis: ["nan,1,2", "1,inf,2", "-inf,1,1", "1,2", "a,b,c"],
        cli._parse_floats: ["nan", "0.5,inf", "x"],
        cli._DATE: ["2020-13-01", "today"],
        int: ["abc", "1.5", "nan", ""],
        float: ["nan", "inf", "-inf", "abc", ""],
    }[s.parse]
    if s.domain == POSITIVE:
        bad += ["0", "-1"]
    if s.domain == GRID_AXIS:
        bad += ["-1,2,3", "1,2,0", "0.3,0.2,5", "0.2,0.2,2", "0,1,1"]
    if s.domain == CURVE_AXIS:
        bad += ["-1,7,3", "-1e-300,1,2", "7,1,3", "1,1,2", "1,7,1", "1,7,0"]
    if s.domain == NONNEGATIVE:
        bad += ["-1", "-1e-300"]
    if s.domain == COUNT:
        bad += ["0", "-3"]
    if s.domain == HORIZON:
        bad += ["13", "0"]
    return st.sampled_from(bad)


def drawn(command):
    """Settings of ``command`` that a run may draw: every one but input paths."""
    return [s for s in COMMANDS[command][2] if s.domain is not None or s.parse is not str]


def run(argv):
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, err.getvalue()


def spelled(flags) -> list[str]:
    """Each (flag, value, joined) as ``flag=value`` or as two arguments."""
    return [arg for flag, text, joined in flags
            for arg in ([f"{flag}={text}"] if joined else [flag, text])]


def written(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_contract(base_argv, command, data):
    flags, lines, bad_flags, bad_keys = [], [], [], []
    for s in drawn(command):
        where = data.draw(st.sampled_from(["", "flag", "config"] if s.key else ["", "flag"]))
        if not where:
            continue
        bad = data.draw(RARELY)
        text = data.draw(out_of_domain(s) if bad else in_domain(s))
        name = s.flag if where == "flag" else s.key
        if where == "flag":
            flags.append((name, text, data.draw(st.booleans())))
        else:
            lines.append(f"{name}={text}")
        if bad:
            (bad_flags if where == "flag" else bad_keys).append(name)
    # A key of another command is ignored, whatever its value.
    others = sorted(CONFIG_KEYS - {s.key for s in COMMANDS[command][2]})
    if others and data.draw(st.booleans()):
        lines.append(f"{data.draw(st.sampled_from(others))}=bogus")
    if data.draw(RARELY):
        key = data.draw(st.sampled_from(UNKNOWN_KEYS))
        lines.append(f"{key}=1")
        bad_keys.append(key)
    lines = data.draw(st.permutations(lines))

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.cfg").write_text("".join(line + "\n" for line in lines))
        argv = [command, *base_argv[command], "--config", str(tmp / "run.cfg"),
                "--no-timestamp", "--quiet"]
        rc, err = run(argv + spelled(flags) + ["--out", str(tmp / "a")])
        flipped = [(flag, text, not joined) for flag, text, joined in flags]
        assert run(argv + spelled(flipped) + ["--out", str(tmp / "b")]) == (rc, err)

        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err
        messages = [line for line in err.splitlines() if line.startswith("epiwave:")]
        assert len(messages) == (rc != 0)
        if rc:
            assert err == messages[0] + "\n"
        if bad_flags:
            assert rc == cli.EXIT_USAGE
            assert any(flag in err for flag in bad_flags)
        elif bad_keys:
            assert rc == cli.EXIT_PARSE
            assert any(key in err for key in bad_keys)
        else:
            assert rc != cli.EXIT_PARSE
        if rc == 0:
            assert written(tmp / "a") == written(tmp / "b")


VALUE_FLAGS = [(command, flag) for command, (_, _, table) in COMMANDS.items()
               for flag in [s.flag for s in table] + ["--config", "--out"]]


@pytest.mark.parametrize("command, flag", VALUE_FLAGS)
def test_flag_prefix_is_unrecognized(base_argv, tmp_path, command, flag):
    """Only full flag names are accepted, in either spelling of the value."""
    for prefix in (flag[:3], flag[:-1]):
        assert prefix not in cli._VALUE_FLAGS
        for value in ("-1e-05", "0.3"):
            argv = [command, *base_argv[command], "--out", str(tmp_path), "--quiet"]
            joined = run(argv + [f"{prefix}={value}"])
            apart = run(argv + [prefix, value])
            assert joined[0] == apart[0] == cli.EXIT_USAGE
            assert apart[1] == f"epiwave: unrecognized arguments: {prefix} {value}\n"
            assert joined[1] == apart[1].replace(f"{prefix} {value}", f"{prefix}={value}")


def readme_command_lines():
    """Each ``epiwave …`` line of README's bash blocks, as an argv."""
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"```bash\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["epiwave"]:
                yield argv[1:]


def test_readme_command_lines_parse():
    argvs = list(readme_command_lines())
    assert {argv[0] for argv in argvs} == set(COMMANDS)
    parser = build_parser()
    for argv in argvs:
        parser.parse_args(argv)


def test_readme_names_each_command_config_keys():
    section = README.read_text(encoding="utf-8").split("| Command | Config keys |")[1]
    named = {}
    for row in re.findall(r"^\| `(\w+)` \|(.*)\|$", section, re.M):
        named[row[0]] = set(re.findall(r"`(\w+)`", row[1]))
    assert named == {name: {s.key for s in table if s.key}
                     for name, (_, _, table) in COMMANDS.items()}
