//! # septic-vm
//!
//! A compile-once/execute-many bytecode VM for the two hot loops of the
//! SEPTIC reproduction:
//!
//! * **Detection** — a learned query model compiles (at train/load
//!   time) into a flat comparison [`Program`]; `Septic::inspect()` then
//!   runs [`run_model`] per query instead of re-walking the QS/QM node
//!   stacks.
//! * **Execution** — dbms WHERE/projection expressions compile (once
//!   per statement shape) into stack programs that a reusable [`Vm`]
//!   evaluates per row instead of recursing over the AST.
//!
//! A [`Program`] is immutable — a shared `Arc<Vec<Op>>` instruction
//! vector plus constant pools — so caching it next to a model (or in
//! the dbms statement-shape cache) costs a refcount bump per lookup.
//! The [`Vm`] holds one reusable operand stack: after warmup a run
//! performs no allocation of its own, and what the stack holds is the
//! host's [`Host::Operand`] — a reference to a value as readily as a
//! value — which operators read in place. All SQL value semantics (MySQL
//! coercions, three-valued logic, scalar functions) stay behind the
//! [`Host`] trait, implemented by the dbms on the same helpers its
//! interpreted walker uses — the walker remains available as the
//! differential oracle, and the two paths cannot drift semantically.

pub mod detect;
pub mod ops;
pub mod program;
pub mod vm;

pub use detect::{compile_model, op_matches, run_model, Lockstep, Verdict};
pub use ops::Op;
pub use program::{Program, ProgramBuilder};
pub use vm::{Host, Vm};

#[cfg(test)]
mod tests {
    use super::*;
    use septic_sql::{items, parse, Item, ItemData, ItemStack};
    use std::cmp::Ordering;

    fn qs(sql: &str) -> ItemStack {
        items::lower_all(&parse(sql).expect("parse").statements)
    }

    fn blank(stack: &ItemStack) -> Vec<Item> {
        stack
            .items()
            .iter()
            .map(|item| {
                if item.tag.is_data() {
                    Item {
                        tag: item.tag,
                        data: ItemData::Bot,
                    }
                } else {
                    item.clone()
                }
            })
            .collect()
    }

    /// `Lockstep` over the nodes as they are lowered gives `run_model`'s
    /// verdict over the built stack: clean, structural both ways, and a
    /// mimicry at the same index; also for a malformed program whose
    /// `CheckLen` and op count disagree (its text pool left empty).
    #[test]
    fn lockstep_gives_run_models_verdict() {
        struct Run<'p>(&'p Program, Lockstep);
        impl<'a> septic_sql::items::Sink<'a> for Run<'_> {
            fn node(&mut self, node: septic_sql::Node<'a>) {
                self.1.step(self.0, &node);
            }
        }
        let shapes = [
            "SELECT * FROM t WHERE a = 'x' AND b = 1",
            "SELECT * FROM t WHERE a = 'x'",
            "SELECT * FROM t WHERE a = 'x' AND b = 1 OR 1 = 1",
            "SELECT * FROM t WHERE a = 'x' AND 1 = 1",
            "SELECT * FROM T WHERE A = 'y' AND B = 2",
            "SELECT t.a FROM t JOIN u ON t.a = u.b WHERE u.c LIKE 'x%'",
        ];
        for trained in shapes {
            let model = blank(&qs(trained));
            let mut malformed = compile_model(&model[..model.len() - 1]).ops().to_vec();
            malformed[0] = Op::CheckLen(model.len() as u32);
            let mut b = ProgramBuilder::new();
            for op in malformed {
                b.emit(op);
            }
            for program in [compile_model(&model), b.finish()] {
                for probe in shapes {
                    let parsed = parse(probe).expect("parse");
                    let mut run = Run(&program, Lockstep::new(&program));
                    items::lower_into(&parsed.statements, &mut run);
                    let stack = items::lower_all(&parsed.statements);
                    assert_eq!(
                        run.1.verdict(&program),
                        run_model(&program, stack.items()),
                        "{trained} / {probe}"
                    );
                }
            }
        }
    }

    #[test]
    fn structure_matches_its_own_model() {
        let stack = qs("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234");
        let program = compile_model(&blank(&stack));
        assert_eq!(run_model(&program, stack.items()), Verdict::Clean);
    }

    #[test]
    fn data_variation_stays_clean_but_structure_change_is_caught() {
        let trained = qs("SELECT * FROM t WHERE a = 'x'");
        let program = compile_model(&blank(&trained));
        // Same shape, different datum: clean.
        let same = qs("SELECT * FROM t WHERE a = 'completely-different'");
        assert_eq!(run_model(&program, same.items()), Verdict::Clean);
        // Tautology appended: extra nodes, structural verdict.
        let attack = qs("SELECT * FROM t WHERE a = 'x' OR 1 = 1");
        let expected = trained.items().len();
        let observed = attack.items().len();
        assert_eq!(
            run_model(&program, attack.items()),
            Verdict::Structural { expected, observed }
        );
    }

    #[test]
    fn mimicry_reports_first_mismatching_node() {
        let trained = qs("SELECT * FROM t WHERE a = 1");
        let program = compile_model(&blank(&trained));
        // Same node count, but the data node type changed (1 → 'x').
        let morphed = qs("SELECT * FROM t WHERE a = 'x'");
        assert_eq!(trained.items().len(), morphed.items().len());
        let verdict = run_model(&program, morphed.items());
        let Verdict::Mimicry { index } = verdict else {
            panic!("expected mimicry, got {verdict:?}");
        };
        assert_ne!(trained.items()[index].tag, morphed.items()[index].tag);
    }

    #[test]
    fn element_match_is_ascii_case_insensitive() {
        let trained = qs("SELECT * FROM Tickets WHERE CreditCard = 1");
        let program = compile_model(&blank(&trained));
        let other_case = qs("select * from TICKETS where creditcard = 2");
        assert_eq!(run_model(&program, other_case.items()), Verdict::Clean);
    }

    /// A minimal integer host: enough to exercise the stack machinery
    /// (jumps, CASE ops, IN-lists) without dragging in dbms semantics.
    struct IntHost {
        slots: Vec<Option<i64>>,
    }

    impl Host for IntHost {
        type Operand = Option<i64>;
        type Error = String;

        fn slot(&self, idx: u32) -> Option<i64> {
            self.slots.get(idx as usize).copied().flatten()
        }
        fn column(&self, _b: u16, _c: u16) -> Option<i64> {
            None
        }
        fn missing_column(&mut self, name: &str) -> String {
            format!("unknown column {name}")
        }
        fn unary(&mut self, _code: u16, v: &Option<i64>) -> Result<Option<i64>, String> {
            Ok(v.map(|x| -x))
        }
        fn binary(
            &mut self,
            _code: u16,
            l: &Option<i64>,
            r: &Option<i64>,
        ) -> Result<Option<i64>, String> {
            match (l, r) {
                (Some(a), Some(b)) => Ok(Some(a + b)),
                _ => Ok(None),
            }
        }
        fn call(
            &mut self,
            name: &str,
            args: std::vec::Drain<'_, Option<i64>>,
        ) -> Result<Option<i64>, String> {
            let args: Vec<Option<i64>> = args.collect();
            match name {
                "SUM2" => self.binary(0, &args[0], &args[1]),
                other => Err(format!("no function {other}")),
            }
        }
        fn is_truthy(&self, v: &Option<i64>) -> bool {
            matches!(v, Some(x) if *x != 0)
        }
        fn is_null(&self, v: &Option<i64>) -> bool {
            v.is_none()
        }
        fn case_eq(&self, a: &Option<i64>, b: &Option<i64>) -> bool {
            matches!((a, b), (Some(x), Some(y)) if x == y)
        }
        fn eq_slot(&self, needle: &Option<i64>, slot: u32) -> Option<bool> {
            match (needle, self.slot(slot)) {
                (Some(a), Some(b)) => Some(*a == b),
                _ => None,
            }
        }
        fn cmp3(&self, a: &Option<i64>, b: &Option<i64>) -> Option<Ordering> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.cmp(y)),
                _ => None,
            }
        }
        fn null(&self) -> Option<i64> {
            None
        }
        fn bool_value(&self, b: bool) -> Option<i64> {
            Some(i64::from(b))
        }
    }

    #[test]
    fn expression_ops_run_on_a_reusable_stack() {
        // 1 + 2, then SUM2(3, 4) — two runs on one VM.
        let mut b = ProgramBuilder::new();
        let s0 = b.slot();
        let s1 = b.slot();
        b.emit(Op::Slot(s0));
        b.emit(Op::Slot(s1));
        b.emit(Op::Binary(0));
        let add = b.finish();

        let mut b = ProgramBuilder::new();
        let s0 = b.slot();
        let s1 = b.slot();
        let f = b.name("SUM2");
        b.emit(Op::Slot(s0));
        b.emit(Op::Slot(s1));
        b.emit(Op::Call { name: f, argc: 2 });
        let call = b.finish();

        let mut vm = Vm::new();
        let mut host = IntHost {
            slots: vec![Some(1), Some(2)],
        };
        assert_eq!(vm.run(&add, &mut host), Ok(&mut Some(3)));
        host.slots = vec![Some(3), Some(4)];
        assert_eq!(vm.run(&call, &mut host), Ok(&mut Some(7)));
    }

    #[test]
    fn case_compiles_to_jumps() {
        // CASE slot0 WHEN slot1 THEN slot2 ELSE slot3 END
        let mut b = ProgramBuilder::new();
        let (op, when, then, els) = (b.slot(), b.slot(), b.slot(), b.slot());
        b.emit(Op::Slot(op));
        b.emit(Op::Dup);
        b.emit(Op::Slot(when));
        let miss = b.emit(Op::JumpIfCaseNe(0));
        b.emit(Op::Pop);
        b.emit(Op::Slot(then));
        let done = b.emit(Op::Jump(0));
        b.patch_jump(miss);
        b.emit(Op::Pop);
        b.emit(Op::Slot(els));
        b.patch_jump(done);
        let program = b.finish();

        let mut vm = Vm::new();
        let mut hit = IntHost {
            slots: vec![Some(5), Some(5), Some(10), Some(20)],
        };
        assert_eq!(vm.run(&program, &mut hit), Ok(&mut Some(10)));
        let mut miss = IntHost {
            slots: vec![Some(5), Some(6), Some(10), Some(20)],
        };
        assert_eq!(vm.run(&program, &mut miss), Ok(&mut Some(20)));
    }

    #[test]
    fn in_list_has_three_valued_semantics() {
        // slot0 IN (slot1, slot2)
        let mut b = ProgramBuilder::new();
        let needle = b.slot();
        let start = b.slot();
        let _ = b.slot();
        b.emit(Op::Slot(needle));
        b.emit(Op::InListSlots {
            start,
            count: 2,
            negated: false,
        });
        let program = b.finish();

        let mut vm = Vm::new();
        let run = |vm: &mut Vm<Option<i64>>, slots: Vec<Option<i64>>| {
            *vm.run(&program, &mut IntHost { slots }).unwrap()
        };
        assert_eq!(run(&mut vm, vec![Some(2), Some(1), Some(2)]), Some(1));
        assert_eq!(run(&mut vm, vec![Some(9), Some(1), Some(2)]), Some(0));
        // NULL member and no hit → NULL; NULL needle → NULL.
        assert_eq!(run(&mut vm, vec![Some(9), None, Some(2)]), None);
        assert_eq!(run(&mut vm, vec![None, Some(1), Some(2)]), None);
    }

    #[test]
    fn short_circuit_replaces_a_deciding_left_side_and_jumps() {
        // slot0 <skip when false> slot1 <binary>
        let mut b = ProgramBuilder::new();
        let (left, right) = (b.slot(), b.slot());
        b.emit(Op::Slot(left));
        let skip = b.emit(Op::ShortCircuit { when: false, to: 0 });
        b.emit(Op::Slot(right));
        b.emit(Op::Binary(0));
        b.patch_jump(skip);
        let program = b.finish();
        assert_eq!(program.ops()[1], Op::ShortCircuit { when: false, to: 4 });

        let mut vm = Vm::new();
        let run = |vm: &mut Vm<Option<i64>>, slots: Vec<Option<i64>>| {
            *vm.run(&program, &mut IntHost { slots }).unwrap()
        };
        // A false left side decides: the host's false, no sum (0 + 7).
        assert_eq!(run(&mut vm, vec![Some(0), Some(7)]), Some(0));
        // A true or NULL left side decides nothing: the binary op runs.
        assert_eq!(run(&mut vm, vec![Some(5), Some(7)]), Some(12));
        assert_eq!(run(&mut vm, vec![None, Some(7)]), None);
    }

    #[test]
    fn missing_column_raises_the_host_error() {
        let mut b = ProgramBuilder::new();
        let n = b.name("ghost");
        b.emit(Op::MissingColumn(n));
        let program = b.finish();
        let mut vm = Vm::new();
        let mut host = IntHost { slots: vec![] };
        assert_eq!(
            vm.run(&program, &mut host),
            Err("unknown column ghost".into())
        );
    }
}
