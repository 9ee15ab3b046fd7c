"""scripts/bench_pairs.py's summary: medians, quartiles, pairs won, the bound verdict and the gain rule."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
END_TO_END = [
    {"name": "fps", "unit": "frames/s", "better": "higher", "bound": 0.25},
    {"name": "cpu_ms_per_clip", "unit": "ms", "better": "lower", "bound": 0.25},
]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(seed, side, fps=None, cpu=None):
    if fps is None:  # a run that died before its result line
        result = {"correct": False, "returncode": 1, "stderr": "boom"}
    else:
        result = {"correct": True, "metrics": {"fps": {"value": fps}, "cpu_ms_per_clip": {"value": cpu}}}
    return {"workload": "w", "seed": seed, "side": side, "commit": side, "result": result}


def test_summary_lines(capsys):
    entries = [
        entry(0, "parent", 100, 100), entry(0, "change", 95, 130),
        entry(1, "change", 110, 130), entry(1, "parent", 110, 100),  # fps tie: counts for neither side
        entry(2, "parent", 120, 100), entry(2, "change", 150, 130),
        entry(3, "change", 80, 126), entry(3, "parent", 130, 100),
        entry(4, "parent"), entry(4, "change"),  # failed runs are left out
    ]
    load_script().summarize(entries, END_TO_END)
    assert capsys.readouterr().out.splitlines() == [
        "w fps (frames/s, higher is better): parent 115 [107.5, 122.5] of 4 runs; "
        "change 102.5 [91.25, 120] of 4 runs; change won 1 of 4 pairs; "
        "median moved -12.5 against a parent quartile spread of 15; within the 25% bound; gain rule not met",
        "w cpu_ms_per_clip (ms, lower is better): parent 100 [100, 100] of 4 runs; "
        "change 130 [129, 130] of 4 runs; change won 0 of 4 pairs; "
        "median moved +30 against a parent quartile spread of 0; beyond the 25% bound; gain rule not met",
    ]


def test_gain_rule(capsys):
    # cpu: the change wins 9 of 10 pairs and its median beats the parent's by more than the parent's
    # quartile spread; fps: it wins all 10, but by less than that spread
    entries = [e for i in range(10) for e in (entry(i, "parent", 100 + 2 * i, 100 + i),
                                             entry(i, "change", 101 + 2 * i, 100 + i + (-20 if i else 1)))]
    load_script().summarize(entries, END_TO_END)
    assert capsys.readouterr().out.splitlines() == [
        "w fps (frames/s, higher is better): parent 109 [104.5, 113.5] of 10 runs; "
        "change 110 [105.5, 114.5] of 10 runs; change won 10 of 10 pairs; "
        "median moved +1 against a parent quartile spread of 9; within the 25% bound; gain rule not met",
        "w cpu_ms_per_clip (ms, lower is better): parent 104.5 [102.2, 106.8] of 10 runs; "
        "change 85.5 [83.25, 87.75] of 10 runs; change won 9 of 10 pairs; "
        "median moved -19 against a parent quartile spread of 4.5; within the 25% bound; gain rule met",
    ]
