import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wreathdet
from wreathdet.verify import SUITES, Check, run_suite


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes(suite):
    checks = run_suite(suite, seed=1)
    failed = [c.name for c in checks if not c.passed]
    assert not failed, failed


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope", seed=1)


def test_check_record_shape():
    checks = run_suite("alphadet", seed=2)
    assert all(isinstance(c, Check) for c in checks)
    assert len({c.name for c in checks}) == len(checks)


@pytest.mark.parametrize("seed", [1, 2])
def test_verify_all_regression(seed):
    # sha256 of every check's (name, passed, detail), in suite order
    doc = json.dumps([(c.name, c.passed, c.detail) for c in run_suite("all", seed)])
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "7edde95a4d3c223772b6231d70f45695b618ce396044690d829f752988e5abb0"
    )


def test_check_runner_logs_one_record_per_check(caplog):
    with caplog.at_level(logging.DEBUG, logger="wreathdet.verify"):
        checks = run_suite("alphadet", seed=1)
    records = [r for r in caplog.records if r.name == "wreathdet.verify"]
    assert [r.levelno for r in records] == [logging.DEBUG] * len(checks)
    assert [r.args[:2] for r in records] == [(c.name, c.passed) for c in checks]
    assert all(r.args[2] >= 0 for r in records)
    assert [c.name for c in checks] == [name for name, _ in SUITES["alphadet"]]
    assert logging.getLogger("wreathdet.verify").handlers == []


def test_python_dash_m_entry_point():
    src = Path(wreathdet.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-m", "wreathdet", "verify", "alphadet", "--seed", "1",
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == [name for name, _ in SUITES["alphadet"]]
