"""The lag experiment script: its default table, and one stacked dtw call per band."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "lag_experiment.py"

DEFAULT_TABLE = """\
           lag             r=7            r=15            r=20            r=30            r=50   unconstrained
             0          1.2453          1.2453          1.2453          1.2453          1.2453          1.2453
             5          1.2630          1.2273          1.2273          1.2273          1.2273          1.2273
            10          6.3750          1.3366          1.3366          1.3366          1.3366          1.3366
            20         25.6131         10.7779          2.4122          2.3142          2.3142          2.3142
            40         59.1373         48.8561         41.8947         26.8356         12.1508         12.1508
"""


def load_script():
    spec = importlib.util.spec_from_file_location("lag_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_table_is_pinned_and_takes_one_dtw_call_per_band(monkeypatch, capsys):
    script = load_script()
    calls = []

    def counting_dtw(x, y, band, _inner=script.dtw):
        calls.append((len(x), band.radius))
        return _inner(x, y, band)

    monkeypatch.setattr(script, "dtw", counting_dtw)
    monkeypatch.setattr("sys.argv", ["lag_experiment.py"])
    assert script.main() == 0
    assert capsys.readouterr().out == DEFAULT_TABLE
    # five lags stacked into each of the six bands: r = 7..50 and unconstrained
    assert calls == [(5, 7), (5, 15), (5, 20), (5, 30), (5, 50), (5, None)]
