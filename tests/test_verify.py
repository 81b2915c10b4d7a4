import pytest

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
