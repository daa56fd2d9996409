"""Tests for the repo-wide AST lint gate (tools/astlint.py)."""

import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
ASTLINT = REPO_ROOT / "tools" / "astlint.py"

sys.path.insert(0, str(REPO_ROOT / "tools"))

import astlint  # noqa: E402


def violations_for(tmp_path, source):
    path = tmp_path / "module.py"
    path.write_text(source)
    return astlint.lint_file(path)


class TestUnseededRandomness:
    def test_legacy_global_rng_flagged(self, tmp_path):
        found = violations_for(
            tmp_path, "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert [v.code for v in found] == ["AL001"]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        found = violations_for(
            tmp_path, "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert [v.code for v in found] == ["AL001"]

    def test_seeded_default_rng_ok(self, tmp_path):
        found = violations_for(
            tmp_path, "import numpy as np\nrng = np.random.default_rng(7)\n"
        )
        assert found == []

    def test_stdlib_global_rng_flagged(self, tmp_path):
        found = violations_for(
            tmp_path, "import random\nx = random.choice([1, 2])\n"
        )
        assert [v.code for v in found] == ["AL001"]

    def test_global_reseed_flagged(self, tmp_path):
        # the seed entries come from the facts layer's RNG tables
        found = violations_for(
            tmp_path,
            "import random\nimport numpy as np\n"
            "np.random.seed(0)\nrandom.seed(0)\n",
        )
        assert [(v.line, v.code) for v in found] == [
            (3, "AL001"), (4, "AL001"),
        ]

    def test_seeded_random_instance_ok(self, tmp_path):
        found = violations_for(
            tmp_path,
            "import random\nrng = random.Random(7)\nx = rng.choice([1])\n",
        )
        assert found == []

    def test_pragma_disables_line(self, tmp_path):
        found = violations_for(
            tmp_path,
            "import numpy as np\n"
            "x = np.random.rand(3)  # astlint: disable\n",
        )
        assert found == []


class TestMutableDefaults:
    def test_list_literal_default_flagged(self, tmp_path):
        found = violations_for(tmp_path, "def f(xs=[]):\n    return xs\n")
        assert [v.code for v in found] == ["AL002"]

    def test_dict_call_default_flagged(self, tmp_path):
        found = violations_for(tmp_path, "def f(m=dict()):\n    return m\n")
        assert [v.code for v in found] == ["AL002"]

    def test_kwonly_default_flagged(self, tmp_path):
        found = violations_for(
            tmp_path, "def f(*, xs={1: 2}):\n    return xs\n"
        )
        assert [v.code for v in found] == ["AL002"]

    def test_none_default_ok(self, tmp_path):
        found = violations_for(tmp_path, "def f(xs=None):\n    return xs\n")
        assert found == []


class TestRegisterOperation:
    HEADER = (
        "import numpy as np\n"
        "from repro.core.operations import register_operation\n"
        "from repro.core.types import ValueType\n"
    )

    def test_annotation_mismatch_flagged(self, tmp_path):
        found = violations_for(
            tmp_path,
            self.HEADER
            + "@register_operation('X', (ValueType.PACKETS,),"
            " ValueType.FEATURES)\n"
            "def _x(inputs, params) -> PacketTable:\n    return inputs[0]\n",
        )
        assert [v.code for v in found] == ["AL003"]

    def test_matching_annotation_ok(self, tmp_path):
        found = violations_for(
            tmp_path,
            self.HEADER
            + "@register_operation('X', (ValueType.PACKETS,),"
            " ValueType.FEATURES)\n"
            "def _x(inputs, params) -> np.ndarray:\n"
            "    return np.zeros((1, 1))\n",
        )
        assert found == []

    def test_wrong_arity_flagged(self, tmp_path):
        found = violations_for(
            tmp_path,
            self.HEADER
            + "@register_operation('X', (ValueType.PACKETS,),"
            " ValueType.ANY)\n"
            "def _x(inputs) -> object:\n    return inputs[0]\n",
        )
        assert [v.code for v in found] == ["AL003"]


class TestWallClock:
    def src_violations_for(self, tmp_path, source):
        src_dir = tmp_path / "src"
        src_dir.mkdir()
        path = src_dir / "module.py"
        path.write_text(source)
        return astlint.lint_file(path)

    def test_time_time_flagged_in_src(self, tmp_path):
        found = self.src_violations_for(
            tmp_path, "import time\nstarted = time.time()\n"
        )
        assert [v.code for v in found] == ["AL004"]

    def test_perf_counter_ok(self, tmp_path):
        found = self.src_violations_for(
            tmp_path, "import time\nstarted = time.perf_counter()\n"
        )
        assert found == []

    def test_time_time_allowed_outside_src(self, tmp_path):
        found = violations_for(
            tmp_path, "import time\nstarted = time.time()\n"
        )
        assert found == []

    def test_pragma_disables_line(self, tmp_path):
        found = self.src_violations_for(
            tmp_path,
            "import time\nstarted = time.time()  # astlint: disable\n",
        )
        assert found == []


class TestOperationMutation:
    HEADER = (
        "import numpy as np\n"
        "from repro.core.operations import register_operation\n"
        "from repro.core.types import ValueType\n"
    )
    DECORATOR = (
        "@register_operation('X', (ValueType.PACKETS,), ValueType.FEATURES)\n"
    )

    def test_input_mutation_flagged(self, tmp_path):
        found = violations_for(
            tmp_path,
            self.HEADER + self.DECORATOR
            + "def _x(inputs, params) -> np.ndarray:\n"
            "    inputs[0].sort()\n"
            "    return np.zeros((1, 1))\n",
        )
        assert [v.code for v in found] == ["AL005"]

    def test_params_mutation_flagged(self, tmp_path):
        found = violations_for(
            tmp_path,
            self.HEADER + self.DECORATOR
            + "def _x(inputs, params) -> np.ndarray:\n"
            "    params['limit'] = 3\n"
            "    return np.zeros((1, 1))\n",
        )
        assert [v.code for v in found] == ["AL005"]

    def test_copy_then_mutate_ok(self, tmp_path):
        found = violations_for(
            tmp_path,
            self.HEADER + self.DECORATOR
            + "def _x(inputs, params) -> np.ndarray:\n"
            "    x = inputs[0].copy()\n"
            "    x.sort()\n"
            "    return x\n",
        )
        assert found == []

    def test_undecorated_function_not_checked(self, tmp_path):
        found = violations_for(
            tmp_path,
            "def helper(inputs, params):\n"
            "    inputs[0].sort()\n"
            "    return inputs[0]\n",
        )
        assert found == []


class TestModuleState:
    def repro_core_violations_for(self, tmp_path, source):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        path = pkg / "module.py"
        path.write_text(source)
        return astlint.lint_file(path)

    def test_lowercase_mutable_global_flagged(self, tmp_path):
        found = self.repro_core_violations_for(
            tmp_path, "registry = {}\n"
        )
        assert [v.code for v in found] == ["AL006"]

    def test_upper_case_constant_ok(self, tmp_path):
        found = self.repro_core_violations_for(
            tmp_path,
            "REGISTRY = {}\n_TABLE = {'a': 1}\n__all__ = []\n"
            "cache = {'a': 1}\n",
        )
        assert [v.code for v in found] == ["AL006"]
        assert found[0].line == 4  # only the lowercase binding

    def test_outside_critical_packages_ok(self, tmp_path):
        found = violations_for(tmp_path, "registry = {}\n")
        assert found == []


class TestExceptionSwallowing:
    def src_violations_for(self, tmp_path, source):
        src_dir = tmp_path / "src"
        src_dir.mkdir(exist_ok=True)
        path = src_dir / "module.py"
        path.write_text(source)
        return astlint.lint_file(path)

    def test_bare_except_flagged(self, tmp_path):
        found = self.src_violations_for(
            tmp_path,
            "try:\n    work()\nexcept:\n    handle()\n",
        )
        assert [v.code for v in found] == ["AL007"]
        assert "bare" in found[0].message

    def test_pass_only_exception_handler_flagged(self, tmp_path):
        found = self.src_violations_for(
            tmp_path,
            "try:\n    work()\nexcept Exception:\n    pass\n",
        )
        assert [v.code for v in found] == ["AL007"]
        assert "swallows" in found[0].message

    def test_ellipsis_body_flagged(self, tmp_path):
        found = self.src_violations_for(
            tmp_path,
            "try:\n    work()\nexcept BaseException:\n    ...\n",
        )
        assert [v.code for v in found] == ["AL007"]

    def test_exception_in_tuple_flagged(self, tmp_path):
        found = self.src_violations_for(
            tmp_path,
            "try:\n    work()\nexcept (ValueError, Exception):\n    pass\n",
        )
        assert [v.code for v in found] == ["AL007"]

    def test_handler_that_records_ok(self, tmp_path):
        found = self.src_violations_for(
            tmp_path,
            "try:\n    work()\nexcept Exception as exc:\n"
            "    log(exc)\n    raise\n",
        )
        assert found == []

    def test_specific_type_pass_ok(self, tmp_path):
        # a pass-only handler for a *named* exception is a deliberate
        # "this specific failure is fine" -- not AL007's target
        found = self.src_violations_for(
            tmp_path,
            "try:\n    work()\nexcept KeyError:\n    pass\n",
        )
        assert found == []

    def test_outside_src_ok(self, tmp_path):
        found = violations_for(
            tmp_path, "try:\n    work()\nexcept:\n    pass\n"
        )
        assert found == []

    def test_waiver_respected(self, tmp_path):
        found = self.src_violations_for(
            tmp_path,
            "try:\n    work()\n"
            "except Exception:  # astlint: disable\n    pass\n",
        )
        assert found == []


class TestBuiltinHash:
    def src_violations_for(self, tmp_path, source):
        src_dir = tmp_path / "src"
        src_dir.mkdir(exist_ok=True)
        path = src_dir / "module.py"
        path.write_text(source)
        return astlint.lint_file(path)

    def test_builtin_hash_flagged(self, tmp_path):
        found = self.src_violations_for(
            tmp_path, "def key(params):\n    return hash(str(params))\n"
        )
        assert [v.code for v in found] == ["AL008"]
        assert "PYTHONHASHSEED" in found[0].message

    def test_hashlib_ok(self, tmp_path):
        found = self.src_violations_for(
            tmp_path,
            "import hashlib\n"
            "def key(params):\n"
            "    return hashlib.sha256(str(params).encode()).hexdigest()\n",
        )
        assert found == []

    def test_method_named_hash_ok(self, tmp_path):
        found = self.src_violations_for(
            tmp_path, "def key(obj):\n    return obj.hash()\n"
        )
        assert found == []

    def test_outside_src_ok(self, tmp_path):
        found = violations_for(
            tmp_path, "def key(params):\n    return hash(str(params))\n"
        )
        assert found == []

    def test_waiver_respected(self, tmp_path):
        found = self.src_violations_for(
            tmp_path,
            "def key(p):\n"
            "    return hash(p)  # astlint: disable\n",
        )
        assert found == []


class TestRowLoopGate:
    HEADER = (
        "import numpy as np\n"
        "from repro.core.operations import register_operation\n"
        "from repro.core.types import ValueType\n"
    )
    DECORATOR = (
        "@register_operation('X', (ValueType.PACKETS,), ValueType.FEATURES)\n"
    )
    LOOPY_BODY = (
        "def _x(inputs, params) -> np.ndarray:\n"
        "    out = np.zeros((len(inputs[0]), 1))\n"
        "    for i, size in enumerate(inputs[0].length):\n"
        "        out[i, 0] = float(size)\n"
        "    return out\n"
    )

    def test_row_loop_in_batchable_op_flagged(self, tmp_path):
        found = violations_for(
            tmp_path, self.HEADER + self.DECORATOR + self.LOOPY_BODY
        )
        assert [v.code for v in found] == ["AL009"]
        assert "elementwise" in found[0].message
        assert "numpy body" in found[0].message

    def test_sequential_op_may_loop(self, tmp_path):
        # a loop-carried accumulator makes the op windowed-sequential:
        # there is nothing to vectorize, so AL009 stays quiet
        found = violations_for(
            tmp_path,
            self.HEADER + self.DECORATOR
            + "def _x(inputs, params) -> np.ndarray:\n"
            "    total = 0.0\n"
            "    out = np.zeros((len(inputs[0]), 1))\n"
            "    for i, size in enumerate(inputs[0].length):\n"
            "        total += float(size)\n"
            "        out[i, 0] = total\n"
            "    return out\n",
        )
        assert found == []

    def test_loop_over_params_ok(self, tmp_path):
        found = violations_for(
            tmp_path,
            self.HEADER + self.DECORATOR
            + "def _x(inputs, params) -> np.ndarray:\n"
            "    cols = []\n"
            "    for field in params['fields']:\n"
            "        cols.append(getattr(inputs[0], field))\n"
            "    return np.stack(cols, axis=1).astype(np.float64)\n",
        )
        assert found == []

    def test_pragma_disables_line(self, tmp_path):
        source = self.HEADER + self.DECORATOR + self.LOOPY_BODY.replace(
            "for i, size in enumerate(inputs[0].length):",
            "for i, size in enumerate(inputs[0].length):"
            "  # astlint: disable",
        )
        assert violations_for(tmp_path, source) == []


class TestStreamStateGate:
    HEADER = "from repro.core.operations import register_stream\n"

    def test_leaky_stream_body_flagged(self, tmp_path):
        found = violations_for(
            tmp_path,
            self.HEADER
            + "@register_stream('X')\n"
            "def _x_stream(inputs, params, state):\n"
            "    rows = state.setdefault('rows', [])\n"
            "    rows.append(inputs[0])\n"
            "    return inputs[0]\n",
        )
        assert [v.code for v in found] == ["AL010"]
        assert "carried stream state" in found[0].message

    def test_stream_body_with_eviction_ok(self, tmp_path):
        found = violations_for(
            tmp_path,
            self.HEADER
            + "@register_stream('X')\n"
            "def _x_stream(inputs, params, state):\n"
            "    state[params['key']] = inputs[0]\n"
            "    state.pop(params['old'], None)\n"
            "    return inputs[0]\n",
        )
        assert found == []

    def test_fixed_key_slot_ok(self, tmp_path):
        found = violations_for(
            tmp_path,
            self.HEADER
            + "@register_stream('X')\n"
            "def _x_stream(inputs, params, state):\n"
            "    ks = state.get('kitsune')\n"
            "    if ks is None:\n"
            "        ks = object()\n"
            "        state['kitsune'] = ks\n"
            "    return inputs[0]\n",
        )
        assert found == []

    def test_leaky_detector_class_flagged(self, tmp_path):
        found = violations_for(
            tmp_path,
            "class LeakyDetector:\n"
            "    def __init__(self):\n"
            "        self._seen = {}\n"
            "    def process_chunk(self, chunk):\n"
            "        for key in chunk:\n"
            "            self._seen[key] = chunk\n"
            "        return []\n",
        )
        assert [v.code for v in found] == ["AL010"]
        assert "bound their memory" in found[0].message

    def test_detector_with_eviction_path_ok(self, tmp_path):
        found = violations_for(
            tmp_path,
            "class BoundedDetector:\n"
            "    def __init__(self):\n"
            "        self._seen = {}\n"
            "    def _evict_expired(self, now):\n"
            "        for key in list(self._seen):\n"
            "            del self._seen[key]\n"
            "    def process_chunk(self, chunk):\n"
            "        for key in chunk:\n"
            "            self._seen[key] = chunk\n"
            "        self._evict_expired(0.0)\n"
            "        return []\n",
        )
        assert found == []

    def test_undecorated_state_function_not_checked(self, tmp_path):
        found = violations_for(
            tmp_path,
            "def helper(inputs, params, state):\n"
            "    state[params['key']] = inputs[0]\n"
            "    return inputs[0]\n",
        )
        assert found == []

    def test_pragma_disables_line(self, tmp_path):
        found = violations_for(
            tmp_path,
            self.HEADER
            + "@register_stream('X')\n"
            "def _x_stream(inputs, params, state):\n"
            "    state[params['key']] = inputs[0]  # astlint: disable\n"
            "    return inputs[0]\n",
        )
        assert found == []


class TestLockDiscipline:
    def serve_violations_for(self, tmp_path, source):
        serve_dir = tmp_path / "serve"
        serve_dir.mkdir(exist_ok=True)
        path = serve_dir / "module.py"
        path.write_text(source)
        return astlint.lint_file(path)

    def test_bare_acquire_release_flagged(self, tmp_path):
        found = violations_for(
            tmp_path,
            "import threading\n"
            "_lock = threading.Lock()\n"
            "def f():\n"
            "    _lock.acquire()\n"
            "    _lock.release()\n",
        )
        assert [v.code for v in found] == ["AL011", "AL011"]
        assert "with _lock:" in found[0].message

    def test_with_block_ok(self, tmp_path):
        found = violations_for(
            tmp_path,
            "import threading\n"
            "_lock = threading.Lock()\n"
            "def f():\n"
            "    with _lock:\n"
            "        pass\n",
        )
        assert found == []

    def test_lock_like_receiver_flagged_without_binding(self, tmp_path):
        found = violations_for(
            tmp_path,
            "def f(queue_lock):\n"
            "    queue_lock.acquire()\n",
        )
        assert [v.code for v in found] == ["AL011"]

    def test_unguarded_serve_module_state_flagged(self, tmp_path):
        found = self.serve_violations_for(
            tmp_path,
            "pending = {}\n"
            "def handle(key):\n"
            "    pending[key] = 1\n",
        )
        codes = {v.code for v in found}
        assert codes == {"AL011"}
        assert any("share module state" in v.message for v in found)

    def test_guarded_serve_module_state_ok(self, tmp_path):
        found = self.serve_violations_for(
            tmp_path,
            "import threading\n"
            "_lock = threading.Lock()\n"
            "TABLE = {}\n"
            "def handle(key):\n"
            "    with _lock:\n"
            "        TABLE[key] = 1\n",
        )
        assert found == []

    def test_module_state_outside_serve_not_checked(self, tmp_path):
        found = violations_for(
            tmp_path,
            "pending = {}\n"
            "def handle(key):\n"
            "    pending[key] = 1\n",
        )
        assert found == []

    def test_pragma_disables_line(self, tmp_path):
        found = violations_for(
            tmp_path,
            "import threading\n"
            "_lock = threading.Lock()\n"
            "def f():\n"
            "    _lock.acquire()  # astlint: disable\n"
            "    _lock.release()  # astlint: disable\n",
        )
        assert found == []


class TestGate:
    def test_fixtures_directories_skipped(self, tmp_path):
        fixture_dir = tmp_path / "fixtures"
        fixture_dir.mkdir()
        (fixture_dir / "noise.py").write_text(
            "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert astlint.iter_python_files([str(tmp_path)]) == []

    def test_cli_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(xs=[]):\n    return xs\n")
        proc = subprocess.run(
            [sys.executable, str(ASTLINT), str(bad)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "AL002" in proc.stdout

    def test_repo_is_clean(self):
        proc = subprocess.run(
            [sys.executable, str(ASTLINT), "src", "tests", "examples",
             "tools"],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout


class TestFactsLoader:
    """A facts layer that fails to load stops the gate (exit 2).

    The gate reads AL005/AL006/AL009-AL011 from one file loaded by
    path; each case runs a copy of the gate next to a broken copy of
    that file and lints a module with two bare lock calls, which the
    intact gate reports as two AL011 violations.
    """

    FACTS = REPO_ROOT / "src" / "repro" / "analysis" / "facts.py"

    def run_against(self, tmp_path, facts_source):
        (tmp_path / "tools").mkdir()
        shutil.copy(ASTLINT, tmp_path / "tools" / "astlint.py")
        analysis = tmp_path / "src" / "repro" / "analysis"
        analysis.mkdir(parents=True)
        if facts_source is not None:
            (analysis / "facts.py").write_text(facts_source)
        target = tmp_path / "locks.py"
        target.write_text(
            "import threading\n"
            "_lock = threading.Lock()\n"
            "def f():\n"
            "    _lock.acquire()\n"
            "    _lock.release()\n"
        )
        return subprocess.run(
            [sys.executable, str(tmp_path / "tools" / "astlint.py"),
             str(target)],
            capture_output=True, text=True,
        )

    def test_intact_copy_reports_the_violations(self, tmp_path):
        proc = self.run_against(tmp_path, self.FACTS.read_text())
        assert proc.returncode == 1
        assert proc.stdout.count("AL011") == 2

    def test_renamed_helper_exits_two_with_reason(self, tmp_path):
        source = self.FACTS.read_text()
        assert "\ndef dotted(" in source
        proc = self.run_against(
            tmp_path, source.replace("\ndef dotted(", "\ndef dotted_path(")
        )
        assert proc.returncode == 2
        assert "violation(s)" not in proc.stdout
        assert "cannot load" in proc.stderr and "dotted" in proc.stderr

    def test_broken_module_body_exits_two_with_reason(self, tmp_path):
        proc = self.run_against(
            tmp_path, self.FACTS.read_text() + "\nraise RuntimeError('boom')\n"
        )
        assert proc.returncode == 2
        assert "violation(s)" not in proc.stdout
        assert "boom" in proc.stderr

    def test_missing_file_exits_two(self, tmp_path):
        proc = self.run_against(tmp_path, None)
        assert proc.returncode == 2
        assert "violation(s)" not in proc.stdout
        assert "cannot load" in proc.stderr
