"""The report of ``scripts/compare_builds.py``: how far moved arrays moved."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_builds.py"
_spec = importlib.util.spec_from_file_location("compare_builds", _SCRIPT)
compare_builds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_builds)


def test_moved_reports_entry_wise_and_norm_wise_differences():
    """An entry near zero inflates the entry-wise figure; the norm-wise one
    says how far the vector moved.  Equal arrays, NaNs in the same place
    included, did not move, and another shape is None."""
    old = np.array([1.0, 2.0, 1e-12, np.nan])
    new = np.array([1.0, 2.0 + 2.0**-50, 2e-12, np.nan])
    count, entry, norm = compare_builds.moved(old, new)
    assert count == 2 and entry == pytest.approx(1.0)
    assert norm == pytest.approx(np.hypot(2.0**-50, 1e-12) / np.sqrt(5.0))
    assert compare_builds.moved(old, old.copy()) == (0, 0.0, 0.0)
    assert compare_builds.moved(old, old[:2]) is None
    assert compare_builds.moved(np.array([1.0, 2.0]), np.array([1.0, np.inf]))[2] == np.inf


def test_report_gives_the_movement_of_every_group_of_solves(tmp_path, capsys):
    """Solves whose ``operations`` moved still report how far their iterate
    and residual history moved, beside the solves that moved by rounding
    only; a history of another length is counted, not compared."""
    solves = {"periodic/64/a2/mgm/solver2": dict(x=2.0**-50, residuals=2.0**-30,
                                                 operations=True),
              "periodic/64/a8/mgm/solver2": dict(x=2.0**-45, residuals=2.0**-27,
                                                 operations=True),
              "reflective/64/a2/mgm/solver0": dict(x=2.0**-52, residuals=None),
              "reflective/64/a3/mgm/solver2": dict(x=None, residuals=None, iterations=True)}
    bad = []
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    for solve, fields in solves.items():
        tag = compare_builds.config_tag(solve)
        arrays = {"parent": {}, "change": {}}
        for field, rel in fields.items():
            key = f"{solve}/{field}"
            bad.append(key)
            if field in ("iterations", "operations"):
                arrays["parent"][key], arrays["change"][key] = np.int64(10), np.int64(11)
            elif rel is None:
                arrays["parent"][key], arrays["change"][key] = np.ones(3), np.ones(4)
            else:
                arrays["parent"][key] = np.array([1.0, 0.0, 1.0])
                arrays["change"][key] = np.array([1.0 + rel, 0.0, 1.0])
        for side, found in arrays.items():
            keys = sorted(found)
            np.savez(tmp_path / side / f"{tag.replace('/', '_')}.npz",
                     **{f"k{i}": found[key] for i, key in enumerate(keys)})
    compare_builds.report(sorted(bad), tmp_path / "parent", tmp_path / "change")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("SOLVES iterations: 1 (reflective/64/a3/mgm/solver2)")
    assert lines[1] == ("  iterate 0 entry-wise, 0 norm-wise (1 of another length); "
                        "residual history 0 entry-wise, 0 norm-wise (1 of another length)")
    assert lines[2].startswith("SOLVES operations: 2 (")
    assert lines[3] == (f"  iterate {2.0**-45:.3g} entry-wise, "
                        f"{2.0**-45 / np.sqrt(2):.3g} norm-wise; "
                        f"residual history {2.0**-27:.3g} entry-wise, "
                        f"{2.0**-27 / np.sqrt(2):.3g} norm-wise")
    assert lines[4].startswith("SOLVES rounding only: 1 (")
    assert lines[5] == (f"  iterate {2.0**-52:.3g} entry-wise, "
                        f"{2.0**-52 / np.sqrt(2):.3g} norm-wise; "
                        "residual history 0 entry-wise, 0 norm-wise (1 of another length)")


def test_report_gives_level_values_entry_wise_and_norm_wise(tmp_path, capsys):
    """A moved level value reports its largest entry-wise relative
    difference, with the configuration it is in, beside the largest
    norm-wise one, which an entry near zero does not inflate; a value of
    another shape reads inf both ways."""
    moves = {"reflective/64/a2": ([1.0, 1e-12, 1.0], [1.0, 2e-12, 1.0]),
             "reflective/64/a3": ([1.0, 1.0], [1.0 + 2.0**-50, 1.0])}
    bad = []
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    for tag, (old, new) in moves.items():
        key = f"{tag}/mgm/L0/step2_pre"
        bad.append(key)
        for side, values in (("parent", old), ("change", new)):
            np.savez(tmp_path / side / f"{tag.replace('/', '_')}.npz", k0=np.array(values))
    compare_builds.report(sorted(bad), tmp_path / "parent", tmp_path / "change")
    line = capsys.readouterr().out.splitlines()[0]
    assert line == ("MOVED mgm/L0/step2_pre: 2 configurations, 2 entries, largest "
                    f"relative difference 1 entry-wise (reflective/64/a2), "
                    f"{1e-12 / np.sqrt(2):.3g} norm-wise")

    tag = "periodic/64/a2"
    bad.append(f"{tag}/mgm/L0/step2_pre")
    for side, values in (("parent", np.ones(3)), ("change", np.ones(4))):
        np.savez(tmp_path / side / f"{tag.replace('/', '_')}.npz", k0=values)
    compare_builds.report(sorted(bad), tmp_path / "parent", tmp_path / "change")
    line = capsys.readouterr().out.splitlines()[0]
    assert line == ("MOVED mgm/L0/step2_pre: 3 configurations, 2 entries, largest "
                    "relative difference inf entry-wise (periodic/64/a2 (shape)), inf norm-wise")
