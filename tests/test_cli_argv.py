"""Generated command lines: each one runs, or is refused in one line.

Hypothesis draws argv from each subcommand's own argparse actions: a
valid choice, a small count, zero or a negative number, junk text, or a
path (writable, under a regular file, missing, a directory).  Every
draw starts from tiny run lengths, so a draw that parses runs in
milliseconds.  It must then either run (exit 0, or 1 for a run that
reports a failure) or be refused while parsing: ``SystemExit(2)``,
nothing on stdout and exactly one ``error:`` line on stderr.  Any other exception is a
bug.  Each draw runs under a wall-clock bound, so a hang fails the test
instead of stalling the suite.
"""

import argparse
import contextlib
import functools
import io
import os
import signal
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main

#: Run lengths each subcommand starts from.  Drawn flags follow these
#: and override them (argparse keeps the last value), but only with
#: small numbers, so every run stays tiny.
_TINY = {
    "figures": ["--only", "table1"],
    "simulate": ["--warmup", "5", "--measure", "20"],
    "trace": ["--workload", "web", "--warmup", "5", "--cycles", "20"],
    "sweep": ["--cycles", "20", "--rates", "0.05", "--mesh", "2x2"],
    "chaos": ["--cycles", "20", "--drain", "200", "--mesh", "2x2"],
}

#: Values any flag may draw instead of a valid one: zero and negative
#: numbers, non-finite ones, paths and junk: text, and bytes decoded the
#: way Python decodes a process's argv (``os.fsdecode``), which can hold
#: anything but NUL.  Paths are relative to each draw's fresh working
#: directory, which holds a regular file ``file``, a directory ``dir``
#: and a snapshot ``snap.json``.
_BAD = st.one_of(
    st.sampled_from(["0", "-1", "-7", "1.5", "nan", "inf", "file/out.json",
                     "missing/out.json", "dir", "file", ""]),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\0"), max_size=6),
    st.binary(max_size=6).filter(lambda raw: b"\0" not in raw)
    .map(os.fsdecode),
)


@st.composite
def _topology(draw):
    """A topology spec: mesh, ring or a small chiplet grid, with zero
    dimensions and bad options among them."""
    kind = draw(st.sampled_from(["mesh", "ring", "chiplet"]))
    if kind != "chiplet":
        return kind
    dims = "x".join(str(draw(st.integers(0, 2))) for _ in range(4))
    options = draw(st.lists(
        st.sampled_from(["star", "ilat=1", "ilat=0", "bogus"]), max_size=2))
    return ":".join(["chiplet", dims] + options)


_COUNTS = st.sampled_from(["0", "1", "3", "12"])
_PATHS = st.sampled_from(["out.json", "dir/ck-{cycle}.json.gz"])

#: Values for each flag without choices: mostly valid, with near misses
#: among them.  A flag added without an entry here fails the test.
#: ``--only`` names cheap figures only, since the grid-backed ones
#: simulate the whole evaluation grid.
_VALID = {
    "only": st.sampled_from(["table1", "fig8", "zeroload", "chiplet",
                             "table1,fig8", "fig8,,table1", "bogus"]),
    "workload": st.sampled_from(["web", "Web Search", "media streaming",
                                 "MapReduce", "nope"]),
    "mesh": st.sampled_from(["1x1", "1x2", "2x2", "3x2", "0x3", "4"]),
    "topology": _topology(),
    "rates": st.sampled_from(["0", "0.01", "1", "0.05,0.3", "0.01,2", ","]),
    "rate": st.sampled_from(["0", "0.05", "1"]),
    "intensity": st.sampled_from(["0", "0.5", "3"]),
    "seed": st.sampled_from(["0", "1", "-3"]),
    "fault_seed": st.sampled_from(["0", "7", "-3"]),
    "warmup": _COUNTS,
    "measure": _COUNTS,
    "cycles": _COUNTS,
    "drain": _COUNTS,
    "checkpoint_every": st.sampled_from(["6", "12"]),
    "packet": _COUNTS,
    "capacity": _COUNTS,
    "json": _PATHS,
    "trace": _PATHS,
    "out": _PATHS,
    "checkpoint": _PATHS,
    "cell_store": st.sampled_from(["cells", "dir/cells"]),
    "restore": st.sampled_from(["snap.json", "missing.json", "dir", "file"]),
}


def _valid(action: argparse.Action):
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    return _VALID[action.dest]


def _subparser(command: str) -> argparse.ArgumentParser:
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices[command]


@st.composite
def _argv(draw, command):
    """``command``, its tiny lengths, then its required arguments and a
    drawn subset of the others, in a drawn order."""
    argv = [command] + _TINY[command]
    actions = [action for action in _subparser(command)._actions
               if not isinstance(action, argparse._HelpAction)]
    for action in draw(st.permutations(actions)):
        if not action.required and not draw(st.booleans()):
            continue
        if action.nargs == 0:  # a switch
            argv.append(action.option_strings[0])
            continue
        value = draw(_BAD if draw(st.integers(0, 4)) == 0 else _valid(action))
        argv += action.option_strings[:1] + [value]
    return argv


@functools.lru_cache(maxsize=None)
def _snapshot() -> bytes:
    """A Web Search snapshot at cycle 3, which ``--warmup 5 --measure
    20`` resumes."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "snap.json")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["simulate", "web", "--warmup", "3", "--measure", "3",
                  "--checkpoint-every", "3", "--checkpoint", path])
        with open(path, "rb") as fh:
            return fh.read()


class _Hang(Exception):
    pass


@contextlib.contextmanager
def _wall_bound(seconds: float):
    def expire(signum, frame):
        raise _Hang(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _run(argv):
    """``main(argv)``'s return value or ``SystemExit``, stdout and
    stderr, run in a fresh working directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            open("file", "w").close()
            os.mkdir("dir")
            with open("snap.json", "wb") as fh:
                fh.write(_snapshot())
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), _wall_bound(10):
                try:
                    result = main(argv)
                except SystemExit as exc:
                    result = exc
        finally:
            os.chdir(cwd)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(_TINY))
def test_generated_argv_runs_or_is_refused_in_one_line(command):
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(command))
    def check(argv):
        result, out, err = _run(argv)
        if isinstance(result, SystemExit):
            assert result.code == 2
            assert out == ""
            (line,) = err.splitlines()
            assert line.startswith("error: ")
        else:
            assert result in (0, 1), (result, err)

    check()
