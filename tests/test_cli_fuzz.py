"""One property over all seven subcommands, run through cli.main in-process.

Whatever small argv it is given, a run ends in exit 0, 2 (a refused input,
argparse's own refusals included) or 3 (a numerical failure), never in a
traceback or a numpy warning. A run that does not succeed prints one line on
stderr and nothing on stdout. A run that succeeds prints nothing on stderr,
and its record holds no NaN or infinity, echoes a seed that keys its stream
as given (Philox takes 64 bits) and gives every occupied histogram bin a
positive density. Settings that take floats are drawn from extreme values.

A second property holds the memory budget to what a run traces: for
simulate, triangular and sample-law configurations whose summed need is over
1 MB, the tracemalloc peak of the record and its rendering is at most that
need.
"""

import contextlib
import io
import json
import tracemalloc
import warnings
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from youngspec import cli
from youngspec.cli import RunConfig, build_record, render_output
from youngspec.matrices import ENTRY_KINDS

_EXTREME = st.sampled_from([0.0, 5e-324, 1e-300, 1.4e154, 1e308, 1.7e308])
_RANGE = st.tuples(_EXTREME, _EXTREME, st.booleans()).map(
    lambda t: f"{-t[0] if t[2] else t[0]!r},{t[1]!r}")
_PARTS = st.lists(st.integers(0, 6), max_size=4).map(
    lambda xs: ",".join(map(str, sorted(xs, reverse=True))))
_SEED = st.sampled_from([0, 1, 2, 3, 7, 11, (1 << 64) - 1, 1 << 64])
_FORMAT = st.sampled_from(["json", "csv"])
_ENTRIES = st.sampled_from(ENTRY_KINDS)


def _flag(name: str, values, always: bool = True):
    """The argv tokens of one flag: a value from ``values`` (None for a bare switch), or with
    ``always`` false, possibly no tokens at all."""
    tokens = values.map(lambda v: [name] if v is None else [f"{name}={v}"])
    return tokens if always else st.one_of(st.just([]), tokens)


def _n(hi: int):
    return st.integers(1, hi)


# each subcommand's flags; the refusals come from the extreme floats, the seed 2^64 and
# parts that are empty or all 0
_FLAGS = {
    "shape": [_flag("--parts", _PARTS), _flag("--dilation", _n(6), False),
              _flag("--format", st.sampled_from(["text", "json"]), False)],
    "moments": [_flag("--r", _n(5)), _flag("--kmax", st.integers(0, 30)),
                _flag("--oracle-trees", st.none(), False)],
    "trees": [_flag("--r", _n(3)), _flag("--vertices", _n(6))],
    "simulate": [st.one_of(_flag("--r", _n(5)), _flag("--parts", _PARTS)),
                 _flag("--dilation", _n(6)), _flag("--replicas", _n(3)), _flag("--seed", _SEED),
                 _flag("--entries", _ENTRIES, False), _flag("--trunc", _EXTREME, False),
                 _flag("--kmax", st.integers(0, 8), False), _flag("--bins", _n(16), False),
                 _flag("--range", _RANGE, False), _flag("--format", _FORMAT, False)],
    "law": [_flag("--r", _n(5)), _flag("--grid", st.integers(16, 100)),
            _flag("--tol", _EXTREME, False), _flag("--kmax", st.integers(0, 8), False),
            _flag("--format", _FORMAT, False)],
    "sample-law": [_flag("--r", _n(5)), _flag("--samples", _n(300)), _flag("--seed", _SEED),
                   _flag("--bins", _n(16), False), _flag("--format", _FORMAT, False)],
    "triangular": [_flag("--size", _n(12)), _flag("--replicas", _n(3)), _flag("--seed", _SEED),
                   _flag("--entries", _ENTRIES, False), _flag("--kmax", st.integers(0, 5), False),
                   _flag("--bins", _n(16), False), _flag("--format", _FORMAT, False)],
}
_ARGVS = st.sampled_from(sorted(_FLAGS)).flatmap(
    lambda sc: st.tuples(*_FLAGS[sc]).map(lambda flags: [sc, *sum(flags, [])]))


def _run(argv: list[str]) -> tuple[int, str, str, dict | None]:
    """Exit code, stdout, stderr and the rendered record of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.object(cli, "render_output", wraps=cli.render_output) as render,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own refusal: usage and its error line
            assert exc.code == 2, argv
            return 2, out.getvalue(), "", None
    return code, out.getvalue(), err.getvalue(), render.call_args.args[0] if render.called else None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
# a cutoff past 1.34e154 made complex entries NaN: a warning, then exit 3
@example(["simulate", "--r", "2", "--dilation", "3", "--replicas", "2", "--seed", "1",
          "--trunc", "1.4e154"])
# a seed of 2^64 was masked to 0 and echoed as given
@example(["sample-law", "--r", "1", "--samples", "5", "--seed", str(1 << 64), "--bins", "2"])
# the window's two ends overflowed when added for the bin midpoints
@example(["simulate", "--r", "4", "--dilation", "1", "--replicas", "1", "--seed", "3",
          "--entries", "rademacher", "--range=-1e308,1e-10"])
# tol * max(1, |f|) overflowed
@example(["law", "--r", "2", "--grid", "100", "--tol", "1.7e308", "--kmax", "3"])
# the contour rule's 1,024 terms summed past the float range at k = 510; m_510 is finite
@example(["law", "--r", "1", "--grid", "16", "--kmax", "510"])
# total * width overflowed, so an occupied bin read density 0
@example(["simulate", "--r", "1", "--dilation", "1", "--replicas", "2", "--seed", "1",
          "--range=0,1.7e308", "--bins", "1"])
@example(["simulate", "--parts", "4,4,4", "--dilation", "1", "--replicas", "3", "--seed", "7",
          "--entries", "rademacher", "--trunc", "1e300", "--bins", "2", "--range=-1e308,3.1"])
@given(_ARGVS)
def test_every_run_exits_0_2_or_3_with_one_line_and_no_warning(argv):
    code, out, err, record = _run(argv)
    assert code in (0, 2, 3), (argv, code)
    if code != 0:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        return
    assert err == "", (argv, err)
    json.dumps(record, allow_nan=False)
    seed = record["config"]["seed"]
    assert seed is None or 0 <= seed < 1 << 64, argv
    hist = record["results"].get("histogram")
    if hist is not None:
        assert all(d > 0 for c, d in zip(hist["counts"], hist["density"]) if c > 0), (argv, hist)


_TRUNC = st.sampled_from([None, 0.5, 1.5, 3.0])
_SHAPES = st.one_of(st.builds(lambda r: {"r": r}, _n(4)),
                    st.lists(_n(6), min_size=1, max_size=4).map(
                        lambda xs: {"parts": sorted(xs, reverse=True)}))
# tall, square and wide diagrams at dims up to about 400, thousands of pooled eigenvalues,
# every entry law with and without a cutoff, long moment rows, many bins and draws
_BUDGETED = st.one_of(
    st.builds(lambda shape, **kw: RunConfig(subcommand="simulate", **shape, **kw), _SHAPES,
              dilation=st.integers(20, 80), replicas=st.integers(1, 20),
              entries=_ENTRIES, trunc=_TRUNC, kmax=st.integers(0, 60),
              bins=st.integers(1, 3000), seed=st.integers(0, 3)),
    st.builds(RunConfig, subcommand=st.just("triangular"), size=st.integers(30, 250),
              replicas=st.integers(1, 20), entries=_ENTRIES, kmax=st.integers(0, 20),
              bins=st.integers(1, 3000), seed=st.integers(0, 3)),
    st.builds(RunConfig, subcommand=st.just("sample-law"), r=_n(4), samples=st.integers(1, 60_000),
              bins=st.integers(1, 3000), seed=st.integers(0, 3)),
)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
# a bin traced 665 bytes in sample-law, past the 520 of BIN_BYTES
@example(RunConfig(subcommand="sample-law", r=1, samples=1, bins=2017, seed=0))
# one block of the distances' walk, about 1 MB, had no part of its own: 1.74 of the need
@example(RunConfig(subcommand="sample-law", r=4, samples=41398, bins=1, seed=0))
@given(_BUDGETED)
def test_traced_peak_is_within_the_summed_memory_need(cfg):
    need = sum(cli._memory_needs(cfg, cfg.parts and cli.Partition(cfg.parts)).values())
    assume(need > 1 << 20)
    try:
        render_output(build_record(cfg), cfg)  # caches and imports are not the run's
    except cli.YoungSpecError:  # a moment past the float range: nothing to hold to the budget
        assume(False)
    tracemalloc.start()
    try:
        render_output(build_record(cfg), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need, (cfg, peak / need)
