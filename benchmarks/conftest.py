"""Every text a benchmark ``emit``s is checked against the test's golden
once the test body has passed (see ``common.check_golden``)."""

import pytest

import common


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    common.EMITTED.clear()
    result = yield
    path = common.GOLDEN / f"{item.path.stem}.{item.name}.txt"
    if common.EMITTED or path.exists():
        common.check_golden(path, common.EMITTED)
    return result
