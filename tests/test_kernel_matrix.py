import kernel_matrix

JUNIT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" tests="4">
<testcase classname="tests.test_nn.TestPadRows" name="test_b[Wh]"><failure message="x"/></testcase>
<testcase classname="tests.test_nn.TestPadRows" name="test_a"/>
<testcase classname="tests.test_swarmsim" name="test_c"><skipped message="s"/></testcase>
<testcase classname="tests.test_dmpc" name="test_d"><error message="e"/></testcase>
</testsuite></testsuites>"""


def cells():
    return {("native", 1): {"passed": 10, "failed": []},
            ("Prescott", 1): {"passed": 10, "failed": []},
            ("native", 2): {"passed": 9, "failed": ["t::old"]},
            ("Prescott", 2): {"passed": 8, "failed": ["t::new", "t::new2"]}}


def test_parse_junit_counts_errors_as_failures_and_skips_as_neither():
    assert kernel_matrix.parse_junit(JUNIT) == {
        "passed": 1,
        "failed": ["tests.test_dmpc::test_d", "tests.test_nn.TestPadRows::test_b[Wh]"]}


def test_each_cell_is_compared_with_native_at_its_thread_count():
    diffs = kernel_matrix.diff_cells(cells())
    assert diffs["native", 1] == diffs["Prescott", 1] == diffs["native", 2] == ([], [])
    assert diffs["Prescott", 2] == (["t::new", "t::new2"], ["t::old"])


def test_summary_lists_only_the_differing_failures():
    assert kernel_matrix.summary(cells()) == [
        "cell              passed  failed  vs native",
        "native/1              10       0  same",
        "Prescott/1            10       0  same",
        "native/2               9       1  same",
        "Prescott/2             8       2  +2 -1",
        "  + t::new",
        "  + t::new2",
        "  - t::old",
    ]


def test_cell_env_sets_only_the_kernel_threads_and_path():
    base = {"OPENBLAS_CORETYPE": "Zen", "PYTHONPATH": "lib", "HOME": "/h"}
    assert kernel_matrix.cell_env("native", 2, base) == {
        "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": "src:lib", "HOME": "/h"}
    assert kernel_matrix.cell_env("Haswell", 1, {})["OPENBLAS_CORETYPE"] == "Haswell"
    assert base["OPENBLAS_CORETYPE"] == "Zen"
