"""Golden bytes of the CSV files credo writes.

The digests were recorded before the row renderer became columnar; any
change to how a cell, a header or a class name is rendered shows up here.
"""

import hashlib
import json

from credo.cli import main
from credo.synth import SynthSpec, write_synthetic

RUN_DIGESTS = {
    "processed_train.csv": "80e03e0105d034c19e0f62b756632e36ce58f7c8e8f52fea1ebc3e2205ace6ad",
    "processed_test.csv": "270dd0434539838252ed39cd65b4870d5a8c032f073749b1f5852c6e3da7ade0",
}
SYNTH_DIGEST = "8e8f9643387e144cf25f0cd6819dffbab53e79b360ed1e579119d892157c9656"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _quoting_csv(path) -> None:
    """A 60-row table whose header and class names need CSV quoting."""
    lines = ['"a,b",plain,kind,status']
    for i in range(60):
        a = "NA" if i % 11 == 3 else repr((i * 37 % 101) / 7.0)
        plain = repr(-0.5 + (i * 13 % 29) / 3.0)
        kind = ("lo", "mid", "hi")[i % 3]
        status = '"x""y"' if (i * 7) % 5 < 2 else "z"
        lines.append(f"{a},{plain},{kind},{status}")
    path.write_text("\n".join(lines) + "\n")


def test_processed_splits_are_golden_and_replay(tmp_path):
    data = tmp_path / "quoting.csv"
    _quoting_csv(data)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "data": str(data),
        "target": "status",
        "model": {"name": "gnb"},
        "scaler": "minmax",
        "smote": {"enabled": False},
        "out_dir": str(tmp_path / "out"),
    }))
    assert main(["run", "-c", str(cfg)]) == 0
    out = tmp_path / "out"
    assert {name: _sha256(out / name) for name in RUN_DIGESTS} == RUN_DIGESTS
    header = (out / "processed_test.csv").read_text().splitlines()[0]
    assert header.startswith('"a,b",')

    rc = main([
        "explain", "-m", "lime", "-a", str(out / "model"),
        "-d", str(out / "processed_test.csv"), "--row", "0", "--out", str(tmp_path / "exp"),
    ])
    assert rc == 0
    assert (tmp_path / "exp" / "explanations" / "lime_row0.csv").is_file()


def test_synthetic_csv_is_golden(tmp_path):
    path = tmp_path / "synth.csv"
    spec = SynthSpec(rows=120, features=6, classes=3, null_rate=0.05, categorical=2, seed=11)
    write_synthetic(str(path), spec)
    assert _sha256(path) == SYNTH_DIGEST
