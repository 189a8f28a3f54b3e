"""Property: on small random channels every achievability row sits below its converse.

Each example runs the CLI sweep on one configuration drawn over
(t, r) in {1, 2, 3}^2, SNR, fading model and epsilon in [0.05, 0.2], with
2,000 samples (enough for the order statistic behind tau = epsilon / 10) and
n at most 60. `ach-nocsi` must not exceed `conv-iso`;
with one transmit antenna, `ach-simo` and `ach-csir-kb` must not exceed
`conv-simo`. The draws cover one, two and three eigenmodes, so every branch
of `channel.gram_eigenvalues` runs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fbl import cli
from fbl import config as cf

SLACK = 1e-9  # nats: the CSV prints 12 significant digits


@st.composite
def configurations(draw):
    t = draw(st.integers(1, 3))
    r = draw(st.integers(1, 3))
    kv = {
        "antennas": f"{t}x{r}",
        "snr_db": repr(draw(st.floats(-5.0, 10.0))),
        "fading.kind": draw(st.sampled_from(["rayleigh", "rician", "nakagami"])),
        "fading.k_db": repr(draw(st.floats(-5.0, 20.0))),
        "fading.m_shape": repr(draw(st.floats(0.5, 4.0))),
        "epsilon": repr(draw(st.floats(0.05, 0.2))),
        "seed": str(draw(st.integers(0, 2**31))),
        "samples": "2000",
        "n_grid": str(draw(st.integers(t + r + 2, 60))),
    }
    pairs = [("ach-nocsi", "conv-iso")]
    if t == 1:
        pairs += [("ach-simo", "conv-simo"), ("ach-csir-kb", "conv-simo")]
    kv["bounds"] = ",".join(sorted({b for pair in pairs for b in pair}))
    return kv, pairs


@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(configurations())
def test_achievability_below_converse(config):
    kv, pairs = config
    rates = {}
    for row in cli.run_sweep(cf.request_from_mapping(kv)):
        cells = row.split(",")
        rates[cells[0]] = float(cells[2])
    for ach, conv in pairs:
        assert rates[ach] <= rates[conv] + SLACK, (kv, ach, rates[ach], conv, rates[conv])
