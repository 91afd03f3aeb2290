"""Framework API: pipeline, mixed-ISA builds, ISA selection."""

import pytest

from repro.cycles.doe import DoeModel
from repro.cycles.ilp import IlpModel
from repro.framework.pipeline import build, build_benchmark, run
from repro.framework.selection import (
    FunctionAttributor,
    demangle,
    profile_functions,
    select_isas,
)

SOURCE = """
int helper(int x) { return x * 3 + 1; }
int main() {
    int s = 0;
    for (int i = 0; i < 20; i++) s += helper(i);
    print_int(s);
    putchar('\\n');
    return 0;
}
"""


class TestPipeline:
    def test_build_and_run(self):
        built = build(SOURCE, isa="risc", filename="app.kc")
        result = run(built)
        assert result.output == "590\n"
        assert result.stats.executed_instructions > 0
        assert result.cycles is None  # no model attached

    def test_run_with_model(self):
        built = build(SOURCE, isa="vliw4", filename="app.kc")
        result = run(built, cycle_model=DoeModel(issue_width=4))
        assert result.output == "590\n"
        assert result.cycles > 0

    def test_entry_metadata(self):
        built = build(SOURCE, isa="vliw2", filename="app.kc")
        assert built.entry_symbol == "$vliw2$main"
        assert built.issue_width == 2

    @pytest.mark.parametrize("isa,width", [("risc", 1), ("vliw4", 4),
                                           ("vliw6", 6)])
    def test_single_isa_width_ignores_libc_stubs(self, isa, width):
        """The linker adds libc stubs for every ISA; they must not
        widen a single-ISA program's cycle model."""
        built = build(SOURCE, isa=isa, filename="app.kc")
        assert built.issue_width == width

    def test_mixed_build_width_is_widest_isa(self):
        built = build(SOURCE, isa="risc", isa_map={"helper": "vliw4"},
                      filename="app.kc")
        assert built.entry_isa == 0
        assert built.issue_width == 4

    def test_mixed_build(self):
        built = build(SOURCE, isa="risc", isa_map={"helper": "vliw4"},
                      filename="app.kc")
        result = run(built)
        assert result.output == "590\n"
        assert result.stats.isa_switches == 40  # 20 calls, 2 per thunk

    def test_benchmark_builder(self):
        built = build_benchmark("qsort")
        result = run(built)
        assert result.output.startswith("1 ")

    def test_decode_cache_toggles(self):
        built = build(SOURCE, filename="app.kc")
        fast = run(built)
        slow = run(built, use_decode_cache=False)
        assert fast.output == slow.output
        assert slow.stats.decoded_instructions == \
            slow.stats.executed_instructions

    def test_max_instructions(self):
        built = build(SOURCE, filename="app.kc")
        result = run(built, max_instructions=10)
        assert result.stats.executed_instructions == 10


class TestSelection:
    def test_demangle(self):
        assert demangle("$risc$main") == "main"
        assert demangle("$vliw4$fdct8x8") == "fdct8x8"
        assert demangle("plain") == "plain"

    def test_profile_attributes_cycles(self):
        built = build(SOURCE, isa="risc", filename="app.kc")
        attributor = profile_functions(built)
        profiles = {demangle(p.name): p for p in attributor.sorted_profiles()}
        assert profiles["helper"].calls == 20
        assert profiles["helper"].ops > 0
        assert profiles["main"].cycles > 0
        # Attributed cycles cover the whole run.
        total = sum(p.cycles for p in attributor.profiles.values())
        assert total == attributor.cycles

    def test_select_returns_usable_map(self):
        report = select_isas(SOURCE, filename="app.kc")
        assert set(report.isa_map) <= {"main", "helper"}
        built = build(SOURCE, isa="risc", isa_map=report.isa_map,
                      filename="app.kc")
        assert run(built).output == "590\n"

    def test_small_functions_stay_on_default(self):
        # helper does ~5 ops per call: far below the reconfiguration
        # cost, so it must not get its own wide ISA.
        report = select_isas(SOURCE, filename="app.kc",
                             reconfig_cost_ops=64.0)
        choice = next(c for c in report.choices if c.function == "helper")
        assert choice.isa == "risc"
        assert "reconfiguration" in choice.reason

    def test_high_ilp_function_gets_wide_isa(self):
        source = """
        int a[64]; int b[64]; int c[64];
        void kernel() {
            for (int i = 0; i < 64; i = i + 4) {
                c[i] = a[i] * b[i];
                c[i+1] = a[i+1] * b[i+1];
                c[i+2] = a[i+2] * b[i+2];
                c[i+3] = a[i+3] * b[i+3];
            }
        }
        int main() {
            for (int i = 0; i < 64; i++) { a[i] = i; b[i] = 64 - i; }
            for (int r = 0; r < 4; r++) kernel();
            print_int(c[10]);
            return 0;
        }
        """
        report = select_isas(source, filename="k.kc")
        choice = next(c for c in report.choices if c.function == "kernel")
        assert choice.width >= 2

    def test_report_formats(self):
        report = select_isas(SOURCE, filename="app.kc")
        text = report.format()
        assert "function" in text and "ILP" in text

    def test_widths_restriction(self):
        report = select_isas(SOURCE, filename="app.kc", widths=(1, 4))
        assert all(c.width in (1, 4) for c in report.choices)


class TestAttributorEdgeCases:
    def test_unknown_address_bucketed(self):
        attributor = FunctionAttributor(IlpModel(), [])

        class FakeDec:
            addr = 0x9999
            n_exec = 1
            ops = ()

        attributor.observe(FakeDec(), [0] * 32)
        assert attributor.profiles["<unknown>"].instructions == 1
