import json

import pytest

from tetracomm import steiner
from tetracomm.checks import Check, Report
from tetracomm.cli import fixtures_dir, main
from tetracomm.partition import build_partition, vector_layout
from tetracomm.schedule import build_demands, build_schedule, validate
from tetracomm.simulator import verify_run
from tetracomm.tensor_core import random_symmetric, random_vector


def test_problems_list_only_failed_checks():
    report = Report([Check("a", True, "fine"), Check("b", False, "broken"), Check("c", False)])
    assert not report.passed
    assert report.problems == ["b: broken", "c: "]
    assert report.check("a") == Check("a", True, "fine")
    with pytest.raises(KeyError):
        report.check("nope")


def test_empty_and_passing_reports():
    assert Report([]).passed and Report([]).problems == []
    assert Report([Check("a", True)]).to_json_obj() == {
        "passed": True,
        "checks": [{"name": "a", "passed": True, "detail": ""}],
    }


def test_check_is_frozen():
    with pytest.raises(AttributeError):
        Check("a", True).passed = False


def test_every_verifier_returns_a_report():
    system = steiner.construct_spherical(2)
    part = build_partition(system)
    demands = build_demands(part)
    layout = vector_layout(30, part)
    reports = [
        steiner.verify(system),
        validate(build_schedule(demands), demands),
        verify_run(random_symmetric(30, 1), random_vector(30, 2), part, layout),
    ]
    for report in reports:
        assert isinstance(report, Report)
        assert report.passed and report.problems == []


def test_steiner_verify_json_is_the_report(capsys):
    path = fixtures_dir() / "steiner_8_4_3.txt"
    assert main(["steiner", "verify", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"passed", "checks"}
    assert obj == steiner.verify(steiner.load(path)).to_json_obj()


def test_simulate_verdict_json_shape(capsys):
    assert main(["simulate", "--q", "2", "--n", "30", "--seed", "11"]) == 0
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert set(verdict) == {"passed", "checks"}
    assert all(set(c) == {"name", "passed", "detail"} for c in verdict["checks"])
