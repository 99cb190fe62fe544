"""The import surface: the package and the CLI load a module only when it is
used, and every public name is the object it always was.

Checks of what a fresh interpreter loads run in a child interpreter, since
this process has loaded every module already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monogamy

ROOT = Path(__file__).resolve().parent.parent

# the public names of the package, by defining module
EXPORTED = {
    "bounds": ["BB84_ROUND_VALUE", "bb84_parallel_value", "binary_entropy",
               "general_upper_bound", "imperfect_guessing_bound", "same_string_bound"],
    "errors": ["CapacityError", "DimensionError", "DomainError", "NotPsdError",
               "ValidationError"],
    "games": ["MonogamyGame", "QSet", "Strategy", "bb84_game", "game_power", "hamming_q_set",
              "overlap", "product_strategy", "same_string_q_set",
              "winning_probability", "winning_probability_with_q", "xor_permutation_family"],
    "qkd": ["HonestNoisyDevice", "KeyLengthReport", "QkdParams", "QkdSecurityReport",
            "max_key_length", "noise_threshold", "run_eqkd_trials", "security_delta",
            "simulate_eqkd", "toeplitz_hash"],
    "posver": ["TimingScenario", "entangled_soundness_bound", "max_entanglement_rate",
               "noisy_soundness_bound", "simulate_pv_rounds", "soundness_bound"],
    "seesaw": ["SeesawConfig", "SeesawResult", "bb84_optimal_unentangled_strategy",
               "optimal_povm_step", "optimal_state_step", "seesaw"],
    "uncertainty": ["CqEnsemble", "UrReport", "check_uncertainty_relation",
                    "guessing_probability", "min_entropy_bracket", "post_measurement_state",
                    "secdef_gap", "ur_bound_n"],
}

# prints the sorted names of the package's modules a child has loaded
LOADED = ("import json, sys\n"
          "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'monogamy')))")


def run_child(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> set[str]:
    return set(json.loads(run_child(f"{code}\n{LOADED}").splitlines()[-1]))


def test_importing_the_cli_loads_no_command_module():
    assert loaded_after("import monogamy.cli") == \
        {"monogamy", "monogamy.cli", "monogamy.errors"}


def test_posver_simulate_loads_only_its_own_modules():
    loaded = loaded_after("from monogamy.cli import dispatch\n"
                          "dispatch(['posver', 'simulate', '--n', '3', '--trials', '100', "
                          "'--deterministic'])")
    assert "monogamy.posver" in loaded
    for name in ("games", "seesaw", "qkd", "uncertainty", "linalg", "fixtures"):
        assert f"monogamy.{name}" not in loaded


@pytest.mark.parametrize("argv", [
    ["seesaw", "--game", "bb84", "--n", "2", "--bob-dim", "4", "--charlie-dim", "4",
     "--restarts", "4", "--seed", "0", "--deterministic"],
    ["ur-check", "--random", "1", "--deterministic"],
], ids=["benchmark-seesaw", "ur-check-random"])
def test_a_command_without_timing_or_keys_loads_neither_posver_nor_qkd(argv):
    # fixtures once imported posver at module level, for its scenario type
    loaded = loaded_after(f"from monogamy.cli import dispatch\ndispatch({argv!r})")
    assert "monogamy.fixtures" in loaded
    assert not {"monogamy.posver", "monogamy.qkd"} & loaded


QKD_SIM = ("from monogamy.cli import dispatch\n"
           "dispatch(['qkd-sim', '--n', '4', '--t', '1', '--s', '2', '--ell', '2', "
           "'--gamma', '0', '--trials', '100', '--deterministic'{}])")


def test_classical_qkd_sim_loads_only_its_own_modules():
    assert loaded_after(QKD_SIM.format("")) == \
        {"monogamy", "monogamy.cli", "monogamy.errors", "monogamy.qkd", "monogamy.bounds",
         "monogamy.rand"}


def test_qkd_sim_with_the_epr_device_loads_the_device_module():
    loaded = loaded_after(QKD_SIM.format(", '--device', 'epr'"))
    assert {"monogamy.qkd", "monogamy.quantum_device", "monogamy.games"} <= loaded


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import monogamy") == {"monogamy"}


@pytest.mark.parametrize("module, name",
                         [(m, n) for m, names in EXPORTED.items() for n in names])
def test_every_public_name_is_its_modules_object(module, name):
    assert getattr(monogamy, name) is getattr(sys.modules[f"monogamy.{module}"], name)
    assert name in dir(monogamy)


def test_the_public_names_are_exactly_the_exported_ones():
    assert sorted(monogamy.__all__) == sorted(n for names in EXPORTED.values() for n in names)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        monogamy.no_such_name


@pytest.mark.parametrize("order", [
    "from monogamy import seesaw as first\nimport monogamy.seesaw as second",
    "import monogamy.seesaw as first\nfrom monogamy import seesaw as second",
    "import monogamy.seesaw\nimport monogamy\nfirst = second = monogamy.seesaw",
    "from monogamy.seesaw import seesaw as first\nfrom monogamy import seesaw as second",
], ids=["package-first", "submodule-first", "submodule-then-attribute", "function-first"])
def test_seesaw_is_the_function_in_every_import_order(order):
    # the submodule and its search function share a name; the package
    # attribute is the function, however the submodule was first loaded
    out = run_child(f"{order}\nimport sys\n"
                    "module = sys.modules['monogamy.seesaw']\n"
                    "print(first is second is module.seesaw is sys.modules['monogamy'].seesaw)")
    assert out.split() == ["True"]


def test_the_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Python quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    out = run_child(block + "\nimport json\n"
                    "print(json.dumps([winning_probability(game, strategy), result.value,"
                    " bb84_parallel_value(2)]))")
    one_round, searched, optimum = json.loads(out.splitlines()[-1])
    assert one_round == pytest.approx(0.8535533905932737, abs=1e-15)
    assert optimum - 1e-9 <= searched <= optimum + 1e-9
