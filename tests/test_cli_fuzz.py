"""Property: any argv drawn from the CLI grammar exits 0, 2 or 3, never with a traceback.

Arguments run in process through `cli.main`; argparse's own rejections
(`SystemExit(2)`) count as exit code 2. Values include nan, inf, negative
and huge numbers; runs stay small (at most 2,000 samples, n at most 60).
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fbl import cli
from fbl import config as cf

BAD_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e308", "-1e308", "1e-300", "x"])
BOUNDS = [b for b, e in cf.BOUNDS.items() if e.command == "bound"]
APPROX = [b for b, e in cf.BOUNDS.items() if e.command == "approx"]


def mostly(good, bad=BAD_NUMBERS):
    """`good` 9 times in 10, else `bad`: many runs get far enough to compute."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


def real(lo, hi):
    return mostly(st.floats(min_value=lo, max_value=hi).map(repr))


def whole(lo, hi):
    return mostly(st.integers(min_value=lo, max_value=hi).map(str))


N_GRID = mostly(
    st.sampled_from(["10:60:25", "geom:10:60:3", "5,30", "40"]),
    st.sampled_from(["60:10:5", "geom:1:0:2", "0", "-3", "1,2", "x", ""]),
)
SAMPLES = whole(100, 2000)


@st.composite
def channel_and_mc(draw):
    fading = draw(mostly(st.sampled_from(["rayleigh", "rician", "nakagami"]), st.just("bogus")))
    # flag=value, so that argparse takes "-1" or "-inf" as a value
    args = [f"--fading={fading}", f"--snr-db={draw(real(-10.0, 10.0))}"]
    if fading == "rician" and draw(mostly(st.just(True), st.just(False))):
        args.append(f"--k-db={draw(real(-10.0, 30.0))}")
    if fading == "nakagami" and draw(mostly(st.just(True), st.just(False))):
        args.append(f"--m-shape={draw(real(0.5, 5.0))}")
    for flag, values in (
        ("--t", whole(1, 3)),
        ("--r", whole(1, 3)),
        ("--cov", st.sampled_from(["iso", "waterfill"])),
        ("--seed", whole(0, 2**40)),
        ("--confidence-delta", real(1e-3, 0.05)),
        ("--epsilon", real(0.01, 0.5)),
        ("--tau", mostly(st.just("grid"), st.sampled_from(["0.001", "0.6", "nan", "abc"]))),
    ):
        if draw(st.booleans()):
            args.append(f"{flag}={draw(values)}")
    args.append(f"--samples={draw(SAMPLES)}")
    if draw(st.booleans()):
        args.append(f"--n={draw(whole(5, 60))}")
    else:
        args.append(f"--n-grid={draw(N_GRID)}")
    return args


@st.composite
def argv(draw):
    command = draw(st.sampled_from(["outage", "eps-capacity", "bound", "approx", "figure"]))
    if command == "figure":
        return [
            "figure", draw(st.sampled_from(["fig2", "fig3", "fig5"])), f"--samples={draw(SAMPLES)}",
            f"--n-grid={draw(N_GRID)}", f"--seed={draw(whole(0, 99))}",
        ]
    head = [command]
    if command == "bound":
        head.append(draw(st.sampled_from(BOUNDS)))
    elif command == "approx":
        head.append(draw(st.sampled_from(APPROX)))
    tail = draw(channel_and_mc())
    if command == "outage" and draw(mostly(st.just(True), st.just(False))):
        tail.append(f"--rate-bits={draw(real(0.0, 4.0))}")
    return head + tail


def _exit_code(args):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(args)
    except SystemExit as exc:  # argparse
        return exc.code


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv())
def test_any_argv_exits_with_a_contract_code(args):
    assert _exit_code(args) in (0, 2, 3), args
