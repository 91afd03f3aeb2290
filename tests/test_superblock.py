"""Superblock engine: differential equivalence, SMC, cycle-model parity.

The superblock engine is a pure optimisation: every test here pins its
observable behaviour to the reference ``predict`` loop — final register
file, memory image, exit code, instruction/slot counts, and (with a
cycle model attached) bit-identical cycle counts.  Self-modifying code
gets its own regression tests because translated blocks cache decoded
semantics far more aggressively than the decode cache alone.
"""

import hashlib

import pytest

from repro.adl.kahrisma import ISA_VLIW4
from repro.cycles.aie import AieModel
from repro.cycles.branch import BranchModel, NotTakenPredictor
from repro.cycles.doe import DoeModel
from repro.cycles.ilp import IlpModel
from repro.programs import load_program, program_names
from repro.sim import superblock as superblock_mod
from repro.sim.interpreter import ENGINES, Interpreter
from repro.sim.state import TEXT_BASE

from .conftest import run_built
from .test_sim_interpreter import enc, make_state


@pytest.fixture()
def loop_words(risc_table):
    """r6 = sum(1..10); then halt.  33 dynamic instructions."""
    return [
        enc(risc_table, "addi", rd=5, rs1=0, imm=10),
        enc(risc_table, "addi", rd=6, rs1=0, imm=0),
        enc(risc_table, "add", rd=6, rs1=6, rs2=5),
        enc(risc_table, "addi", rd=5, rs1=5, imm=-1),
        enc(risc_table, "bne", rs1=5, rs2=0, imm=-3),
        enc(risc_table, "halt"),
    ]


MIXED_SOURCE = """
int helper(int x) { return x * 3 + 1; }
int main() {
    int s = 0;
    for (int i = 0; i < 20; i++) s += helper(i);
    print_int(s);
    putchar('\\n');
    return 0;
}
"""


def mem_digest(mem) -> str:
    """Canonical digest of resident memory, skipping all-zero pages.

    Zero pages are skipped because the sparse memory may or may not
    materialise them depending on access patterns (e.g. the word-view
    fast path), while their contents are identical by definition.
    """
    h = hashlib.sha256()
    for index, data in sorted(mem.pages()):
        if not any(data):
            continue
        h.update(index.to_bytes(8, "little"))
        h.update(bytes(data))
    return h.hexdigest()


def snapshot(program, stats) -> dict:
    state = program.state
    return {
        "exit": state.exit_code,
        "halted": state.halted,
        "ip": state.ip,
        "regs": tuple(state.regs),
        "mem": mem_digest(state.mem),
        "output": program.output,
        "instructions": stats.executed_instructions,
        "slots": stats.executed_slots,
        "mem_instructions": stats.memory_instructions,
        "mem_ops": stats.memory_ops,
        "decoded": stats.decoded_instructions,
        "isa_switches": stats.isa_switches,
    }


def snapshot_state(state, stats) -> dict:
    """Architectural state and statistics of a hand-assembled run."""
    return {
        "halted": state.halted,
        "ip": state.ip,
        "regs": tuple(state.regs),
        "mem": mem_digest(state.mem),
        "instructions": stats.executed_instructions,
        "slots": stats.executed_slots,
        "ops": stats.executed_ops,
        "mem_instructions": stats.memory_instructions,
        "mem_ops": stats.memory_ops,
    }


class TestDifferential:
    """predict vs superblock over every bundled benchmark program."""

    @pytest.mark.parametrize("name", sorted(program_names()))
    def test_benchmark_bit_identical(self, kc, name):
        built = kc(load_program(name), isa="risc", filename=f"{name}.kc")
        base = snapshot(*run_built(built, engine="predict"))
        fast = snapshot(*run_built(built, engine="superblock"))
        assert fast == base

    def test_mixed_isa_program(self, kc):
        built = kc(MIXED_SOURCE, isa="risc", isa_map={"helper": "vliw4"},
                   filename="sbmix.kc")
        base = snapshot(*run_built(built, engine="predict"))
        fast = snapshot(*run_built(built, engine="superblock"))
        assert base["isa_switches"] == 40
        assert fast == base

    @pytest.mark.parametrize("isa", ["vliw2", "vliw6", "vliw8"])
    def test_vliw_dct4x4_bit_identical(self, kc, isa):
        """Bundles of every width translate like vliw4's, cycles too."""
        built = kc(load_program("dct4x4"), isa=isa,
                   filename=f"dct4x4-{isa}.kc")
        width = built.issue_width
        runs = {}
        for engine in ("predict", "superblock"):
            model = DoeModel(issue_width=width)
            program, stats = run_built(built, engine=engine,
                                       cycle_model=model)
            runs[engine] = (snapshot(program, stats), model.cycles,
                            model.ops, list(model.slot_last_start))
        assert runs["superblock"] == runs["predict"]
        base = snapshot(*run_built(built, engine="predict"))
        fast = snapshot(*run_built(built, engine="superblock"))
        assert fast == base

    def test_all_engines_agree(self, kc):
        built = kc(MIXED_SOURCE, isa="vliw2", filename="sbv2.kc")
        snaps = {e: snapshot(*run_built(built, engine=e)) for e in ENGINES}
        reference = snaps["predict"]
        for engine, snap in snaps.items():
            # Decode counts legitimately differ per engine; everything
            # architectural must not.
            snap = dict(snap)
            ref = dict(reference)
            del snap["decoded"], ref["decoded"]
            assert snap == ref, engine


class TestCycleModelParity:
    """ILP (batched observe_block) and AIE/DOE (per-instruction
    fallback) must report identical cycles under both engines."""

    @pytest.mark.parametrize("model_fn", [
        IlpModel,
        AieModel,
        lambda: DoeModel(issue_width=8),
    ], ids=["ilp", "aie", "doe"])
    def test_cycle_counts_identical(self, kc, model_fn):
        built = kc(load_program("dct4x4"), isa="risc",
                   filename="dct4x4.kc")
        results = {}
        for engine in ("predict", "superblock"):
            model = model_fn()
            program, stats = run_built(built, engine=engine,
                                       cycle_model=model)
            results[engine] = (model.cycles, model.ops,
                               model.instructions, program.output)
        assert results["superblock"] == results["predict"]

    def test_ilp_uses_block_observation(self, kc):
        built = kc(load_program("fft"), isa="risc", filename="fft.kc")
        model = IlpModel()
        reference = IlpModel()
        run_built(built, engine="predict", cycle_model=reference)
        program, stats = run_built(built, engine="superblock",
                                   cycle_model=model)
        assert model.observe_block is not None
        assert (model.cycles, model.ops) == \
            (reference.cycles, reference.ops)
        assert model.instructions == stats.executed_instructions


class TestSelfModifyingCode:
    """Stores into decoded code must invalidate plans and cache lines."""

    def _patch_loop_words(self, risc_table):
        """A loop whose body instruction is patched on the first pass.

        Iteration 1 executes ``addi r6, r6, 1``; the loop body then
        overwrites that instruction with ``addi r6, r6, 10``, so
        iteration 2 adds 10: r6 == 11 iff the new decode executes.
        """
        data_off = TEXT_BASE + 8 * 4
        patched_addr = TEXT_BASE + 1 * 4
        return [
            enc(risc_table, "addi", rd=5, rs1=0, imm=2),
            enc(risc_table, "addi", rd=6, rs1=6, imm=1),   # patched
            enc(risc_table, "lw", rd=1, rs1=0, imm=data_off),
            enc(risc_table, "addi", rd=2, rs1=0, imm=patched_addr),
            enc(risc_table, "sw", rt=1, rs1=2, imm=0),
            enc(risc_table, "addi", rd=5, rs1=5, imm=-1),
            enc(risc_table, "bne", rs1=5, rs2=0, imm=-6),
            enc(risc_table, "halt"),
            enc(risc_table, "addi", rd=6, rs1=6, imm=10),  # data: new word
        ]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_loop_patch_executes_new_decode(self, target, risc_table,
                                            engine):
        state = make_state(target, self._patch_loop_words(risc_table))
        stats = Interpreter(state, engine=engine).run()
        assert state.regs[6] == 11
        assert state.halted
        assert stats.executed_instructions == 14

    @pytest.mark.parametrize("hot_threshold", [None, 1],
                             ids=["cold", "translated"])
    def test_patch_ahead_in_same_block(self, target, risc_table,
                                       monkeypatch, hot_threshold):
        """A store that rewrites a *later* instruction of the same
        straight-line block must abort the block mid-flight: the
        already-fetched stale tail must not execute.

        ``hot_threshold=1`` forces translation so the abort path of the
        compiled block function is exercised too.
        """
        if hot_threshold is not None:
            monkeypatch.setattr(superblock_mod, "HOT_THRESHOLD",
                                hot_threshold)
        data_off = TEXT_BASE + 6 * 4
        patched_addr = TEXT_BASE + 4 * 4
        words = [
            enc(risc_table, "lw", rd=1, rs1=0, imm=data_off),
            enc(risc_table, "addi", rd=2, rs1=0, imm=patched_addr),
            enc(risc_table, "sw", rt=1, rs1=2, imm=0),
            enc(risc_table, "addi", rd=3, rs1=0, imm=1),
            enc(risc_table, "addi", rd=7, rs1=0, imm=1),   # patched
            enc(risc_table, "halt"),
            enc(risc_table, "addi", rd=7, rs1=0, imm=99),  # data: new word
        ]
        results = {}
        for engine in ("predict", "superblock"):
            state = make_state(target, list(words))
            stats = Interpreter(state, engine=engine).run()
            results[engine] = (state.regs[7], tuple(state.regs),
                               stats.executed_instructions)
        assert results["superblock"][0] == 99
        assert results["superblock"] == results["predict"]

    def test_data_store_in_code_page_keeps_plans(self, target, risc_table):
        """Stores into the *data* bytes of a code page must not blow
        away plans — invalidation is byte-range precise."""
        scratch = TEXT_BASE + 16 * 4  # same page, beyond the code
        words = [
            enc(risc_table, "addi", rd=5, rs1=0, imm=3),
            enc(risc_table, "addi", rd=2, rs1=0, imm=scratch),
            enc(risc_table, "sw", rt=5, rs1=2, imm=0),
            enc(risc_table, "addi", rd=5, rs1=5, imm=-1),
            enc(risc_table, "bne", rs1=5, rs2=0, imm=-3),
            enc(risc_table, "halt"),
        ]
        state = make_state(target, words)
        interp = Interpreter(state, engine="superblock")
        stats = interp.run()
        assert state.regs[5] == 0
        assert state.mem.load4(scratch) == 1
        # Nothing was invalidated: every static instruction decoded once.
        assert stats.decoded_instructions == len(words)
        assert interp.superblock.plans


class TestEngineBehavior:
    def test_unknown_engine_rejected(self, target, risc_table):
        state = make_state(target, [enc(risc_table, "halt")])
        with pytest.raises(ValueError, match="unknown engine"):
            Interpreter(state, engine="turbo")

    def test_budget_stops_mid_block(self, target, loop_words):
        """max_instructions must be exact even when it lands inside a
        translated block (the engine trims via the predict tail)."""
        reference = make_state(target, loop_words)
        Interpreter(reference, engine="predict").run(max_instructions=10)
        state = make_state(target, loop_words)
        stats = Interpreter(state, engine="superblock").run(
            max_instructions=10)
        assert stats.executed_instructions == 10
        assert not state.halted
        assert tuple(state.regs) == tuple(reference.regs)
        assert state.ip == reference.ip

    def test_chain_ablation_preserves_results(self, target, loop_words):
        state = make_state(target, loop_words)
        interp = Interpreter(state, engine="superblock")
        interp.superblock.chain = False
        stats = interp.run()
        assert state.regs[6] == 55
        assert stats.executed_instructions == 33
        assert interp.superblock.chain_hits == 0

    def test_chaining_links_blocks(self, target, loop_words):
        state = make_state(target, loop_words)
        interp = Interpreter(state, engine="superblock")
        interp.run()
        assert interp.superblock.chain_hits > 0
        assert interp.superblock.plans_built >= 1

    def test_traced_run_falls_back(self, target, loop_words):
        """Debug features (ip history) force the featureful loop even
        when the superblock engine is selected."""
        state = make_state(target, loop_words)
        interp = Interpreter(state, engine="superblock", ip_history=16)
        stats = interp.run()
        assert state.regs[6] == 55
        assert stats.executed_instructions == 33

    def test_decode_stats_match_predict(self, target, loop_words):
        state = make_state(target, loop_words)
        stats = Interpreter(state, engine="superblock").run()
        # 6 static instructions decoded exactly once each.
        assert stats.decoded_instructions == 6
        assert stats.executed_instructions == 33
        assert stats.executed_slots == 33


#: The NOP operation word (opcode 0): pads a bundle's unused slots.
NOP = 0


class TestBundleTranslation:
    """Hand-assembled vliw4 bundles through the translated engine.

    Every case forces translation on first execution and compares the
    translated run with the buffered ``predict`` loop: architectural
    state and statistics functionally, and under AIE and DOE (NOP issue
    counted and not, and with a branch model) the cycle model's full
    state — fused, observed per instruction, and predict.
    """

    @staticmethod
    def bundle(*words):
        return list(words) + [NOP] * (4 - len(words))

    @staticmethod
    def models():
        return {
            "aie": AieModel,
            "doe": lambda: DoeModel(issue_width=4),
            "doe-nop-free": lambda: DoeModel(issue_width=4,
                                             count_nop_issue=False),
            # Mispredicted back-edges raise the fetch floor that each
            # slot's first op of a fused body is clamped against.
            "doe-branch": lambda: DoeModel(
                issue_width=4,
                branch_model=BranchModel(NotTakenPredictor(), penalty=7),
            ),
        }

    @staticmethod
    def model_state(model):
        state = {"cycles": model.cycles, "ops": model.ops,
                 "instructions": model.instructions,
                 "reg_write_cycle": list(model.reg_write_cycle)}
        if isinstance(model, DoeModel):
            state["slot_last_start"] = list(model.slot_last_start)
            state["max_completion"] = model.max_completion
            state["fetch_floor"] = model.fetch_floor
        return state

    def run(self, target, words, engine, init=None, **kwargs):
        state = make_state(target, words, isa_id=ISA_VLIW4)
        if init is not None:
            init(state)
        interp = Interpreter(state, engine=engine, **kwargs)
        stats = interp.run()
        return snapshot_state(state, stats), interp

    def check(self, target, words, monkeypatch, init=None):
        """Differentials for ``words``; returns the functional snapshot."""
        monkeypatch.setattr(superblock_mod, "HOT_THRESHOLD", 1)
        variants = []
        translate = superblock_mod.SuperblockPlan.translate

        def spy(plan, timing=None):
            made = translate(plan, timing)
            variants.extend(made)
            return made

        monkeypatch.setattr(superblock_mod.SuperblockPlan, "translate", spy)
        self.variants = variants
        base, _ = self.run(target, words, "predict", init)
        fast, _ = self.run(target, words, "superblock", init)
        assert fast == base
        assert "full" in variants or "body" in variants
        for name, make in self.models().items():
            runs = {}
            for label, engine, fuse in (("predict", "predict", True),
                                        ("fused", "superblock", True),
                                        ("observe", "superblock", False)):
                model = make()
                snap, _ = self.run(target, words, engine, init,
                                   cycle_model=model, fuse_cycles=fuse)
                assert snap == base, (name, label)
                runs[label] = self.model_state(model)
            assert runs["fused"] == runs["predict"], name
            assert runs["observe"] == runs["predict"], name
        assert "fused_full" in variants or "fused_body" in variants
        return base

    def loop(self, table, body, count=3):
        """``count`` iterations of ``body`` bundles, counted in r5."""
        words = self.bundle(enc(table, "addi", rd=5, rs1=0, imm=count))
        for b in body:
            words += self.bundle(*b)
        words += self.bundle(enc(table, "addi", rd=5, rs1=5, imm=-1))
        back = -4 * (len(body) + 2)  # words from the next bundle
        words += self.bundle(enc(table, "bne", rs1=5, rs2=0, imm=back))
        words += self.bundle(enc(table, "halt"))
        return words

    def test_read_after_write_between_slots(self, target, risc_table,
                                            monkeypatch):
        t = risc_table
        words = self.loop(t, [
            [enc(t, "addi", rd=1, rs1=1, imm=1),
             enc(t, "add", rd=2, rs1=2, rs2=1),     # reads r1 pre-bundle
             enc(t, "mul", rd=3, rs1=1, rs2=1)],
            [enc(t, "add", rd=1, rs1=2, rs2=0),
             enc(t, "add", rd=2, rs1=1, rs2=0)],    # swap r1 and r2
        ])

        def init(state):
            state.regs[1], state.regs[2] = 10, 100

        snap = self.check(target, words, monkeypatch, init)
        regs = snap["regs"]
        # Hand-run: (r1, r2) -> (r2 + r1, r1 + 1) three times.
        r1, r2 = 10, 100
        for _ in range(3):
            r1, r2, r3 = r2 + r1, r1 + 1, r1 * r1
        assert (regs[1], regs[2], regs[3]) == (r1, r2, r3)

    def test_two_slots_write_one_register(self, target, risc_table,
                                          monkeypatch):
        t = risc_table
        words = self.loop(t, [
            [enc(t, "addi", rd=3, rs1=0, imm=5),
             enc(t, "addi", rd=3, rs1=0, imm=7),    # last writer wins
             enc(t, "addi", rd=0, rs1=3, imm=9),    # r0 stays 0
             enc(t, "add", rd=4, rs1=3, rs2=4)],   # reads r3 pre-bundle
        ])
        snap = self.check(target, words, monkeypatch)
        regs = snap["regs"]
        assert regs[0] == 0
        assert regs[3] == 7
        assert regs[4] == 0 + 7 + 7  # pre-bundle r3: 0, then 7, 7

    def test_store_and_load_same_address(self, target, risc_table,
                                         monkeypatch):
        t = risc_table
        words = self.loop(t, [
            [enc(t, "sw", rt=5, rs1=10, imm=0),
             enc(t, "lw", rd=6, rs1=10, imm=0),     # pre-bundle memory
             enc(t, "add", rd=7, rs1=7, rs2=6),
             enc(t, "sb", rt=7, rs1=10, imm=4)],
        ], count=4)

        def init(state):
            state.regs[10] = 0x8000
            state.mem.store4(0x8000, 13)

        snap = self.check(target, words, monkeypatch, init)
        regs = snap["regs"]
        # r6 sees the previous iteration's store: 13, 4, 3, 2.
        assert regs[6] == 2
        assert regs[7] == 13 + 4 + 3

    def test_bundle_store_into_own_plan_aborts(self, target, risc_table,
                                               monkeypatch):
        """A bundle store rewrites a later bundle of its own block."""
        t = risc_table
        base = TEXT_BASE
        patched = base + 2 * 16
        data = base + 4 * 16
        words = (
            self.bundle(enc(t, "lw", rd=1, rs1=0, imm=data),
                        enc(t, "addi", rd=2, rs1=0, imm=patched),
                        enc(t, "addi", rd=3, rs1=0, imm=4))
            + self.bundle(enc(t, "addi", rd=3, rs1=3, imm=1),
                          enc(t, "sw", rt=1, rs1=2, imm=0),
                          enc(t, "addi", rd=4, rs1=3, imm=5))
            + self.bundle(enc(t, "addi", rd=7, rs1=0, imm=1))   # patched
            + self.bundle(enc(t, "halt"))
            + self.bundle(enc(t, "addi", rd=7, rs1=0, imm=99))  # new word
        )
        snap = self.check(target, words, monkeypatch)
        regs = snap["regs"]
        assert regs[7] == 99
        assert (regs[3], regs[4]) == (5, 9)
        assert snap["instructions"] == 4

    def test_body_writes_reach_buffered_terminator(self, target, risc_table,
                                                  monkeypatch):
        """A body function ends by falling off its last line: its
        register writes must still reach the register file."""
        t = risc_table
        words = (
            self.bundle(enc(t, "addi", rd=1, rs1=0, imm=5),
                        enc(t, "addi", rd=2, rs1=0, imm=7))
            + self.bundle(enc(t, "add", rd=3, rs1=1, rs2=2),
                          enc(t, "mul", rd=4, rs1=1, rs2=2),
                          enc(t, "addi", rd=1, rs1=1, imm=1))
            + self.bundle(enc(t, "halt"))
        )
        snap = self.check(target, words, monkeypatch)
        assert "body" in self.variants and "fused_body" in self.variants
        assert snap["regs"][1:5] == (6, 7, 12, 35)

    @pytest.mark.parametrize("where", ["leading", "between"])
    def test_nop_only_bundles(self, target, risc_table, monkeypatch,
                              where):
        t = risc_table
        work = [enc(t, "addi", rd=1, rs1=1, imm=1), NOP,
                enc(t, "mul", rd=2, rs1=1, rs2=1),
                enc(t, "lw", rd=3, rs1=10, imm=0)]
        body = [[], work, [], [], work]
        if where == "leading":
            body = [[], [], work]
        words = self.loop(t, body)

        def init(state):
            state.regs[10] = 0x8000

        snap = self.check(target, words, monkeypatch, init)
        assert snap["slots"] == 4 * snap["instructions"]

