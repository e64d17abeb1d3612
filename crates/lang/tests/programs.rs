//! End-to-end language tests: ALPS source → expected output, on the
//! deterministic simulator, through both back ends.

use std::sync::Arc;

use alps_lang::{
    check, parse, run_checked, run_compiled, spawn_compiled, Checked, Output, RunError,
};
use alps_runtime::{Runtime, SimRuntime};

type Backend = fn(&Runtime, &Arc<Checked>, Output) -> Result<(), RunError>;

/// Run a program on the simulator, returning captured output lines.
fn run(src: &str) -> Vec<String> {
    try_run(src).unwrap_or_else(|e| panic!("program failed: {e}"))
}

/// Run a program through the reference walker and the optimised one.
/// Their outputs — or their error strings, position included — must be
/// equal; the tests then hold that one result against what is written
/// down here, which also checks the IR both walkers start from: the one
/// `check.rs`'s `Cx` builds while it types the program.
fn try_run(src: &str) -> Result<Vec<String>, String> {
    let checked =
        Arc::new(check(parse(src).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?);
    let reference = run_on(&checked, run_checked);
    let compiled = run_on(&checked, run_compiled);
    assert_eq!(compiled, reference, "the back ends disagree");
    reference
}

fn run_on(checked: &Arc<Checked>, backend: Backend) -> Result<Vec<String>, String> {
    let checked = Arc::clone(checked);
    let (out, buf) = Output::buffer();
    let sim = SimRuntime::new();
    let inner: Result<(), String> = sim
        .run(move |rt| backend(rt, &checked, out).map_err(|e| e.to_string()))
        .map_err(|e| e.to_string())?;
    inner?;
    let text = buf.lock().clone();
    Ok(text.lines().map(str::to_string).collect())
}

#[test]
fn hello_world() {
    assert_eq!(
        run(r#"main begin print("hello, world") end"#),
        vec!["hello, world"]
    );
}

#[test]
fn arithmetic_and_control_flow() {
    let out = run(r#"
        main
          var x: int;
          var s: string;
        begin
          x := 2 + 3 * 4;
          if x = 14 then s := "yes" else s := "no" end if;
          print(s, " ", x);
          while x > 12 do x := x - 1 end while;
          print(x);
          for x := 1 to 3 do print("i=", x) end for
        end
    "#);
    assert_eq!(out, vec!["yes 14", "12", "i=1", "i=2", "i=3"]);
}

#[test]
fn string_concat_and_builtins() {
    let out = run(r#"
        main
          var s: string;
          var xs: list(int);
        begin
          s := "a" + "b";
          print(s, len(s));
          push(xs, 10); push(xs, 20);
          print(len(xs), " ", get(xs, 1));
          set(xs, 0, 99);
          print(pop(xs));
          print(str(42) + "!")
        end
    "#);
    assert_eq!(out, vec!["ab2", "2 20", "99", "42!"]);
}

#[test]
fn channels_send_receive() {
    let out = run(r#"
        main
          var C: chan(int, string);
          var n: int;
          var s: string;
        begin
          send C(7, "seven");
          receive C(n, s);
          print(n, "=", s)
        end
    "#);
    assert_eq!(out, vec!["7=seven"]);
}

#[test]
fn simple_object_without_manager() {
    let out = run(r#"
        object Math defines
          proc Square(v: int) returns (int);
        end Math;
        object Math implements
          proc Square(v: int) returns (int);
          begin return (v * v) end Square;
        end Math;
        main var r: int; begin
          r := Math.Square(9);
          print(r)
        end
    "#);
    assert_eq!(out, vec!["81"]);
}

#[test]
fn object_shared_data_and_init() {
    let out = run(r#"
        object Counter defines
          proc Incr() returns (int);
        end Counter;
        object Counter implements
          var Count: int;
          proc Incr() returns (int);
          begin
            Count := Count + 1;
            return (Count)
          end Incr;
          begin
            Count := 100
          end Counter;
        main var a: int; var b: int; begin
          a := Counter.Incr();
          b := Counter.Incr();
          print(a, " ", b)
        end
    "#);
    assert_eq!(out, vec!["101 102"]);
}

#[test]
fn manager_execute_serializes() {
    let out = run(r#"
        object Guarded defines
          proc Get() returns (int);
        end Guarded;
        object Guarded implements
          var N: int;
          proc Get() returns (int);
          begin
            N := N + 1;
            return (N)
          end Get;
          manager
            intercepts Get;
            begin
              loop
                accept Get => execute Get
              end loop
            end;
        end Guarded;
        main var i: int; var v: int; begin
          for i := 1 to 3 do
            v := Guarded.Get();
            print(v)
          end for
        end
    "#);
    assert_eq!(out, vec!["1", "2", "3"]);
}

#[test]
fn manager_rewrites_intercepted_values() {
    let out = run(r#"
        object Adjust defines
          proc P(v: int) returns (int);
        end Adjust;
        object Adjust implements
          proc P(v: int) returns (int);
          begin return (v * 10) end P;
          manager
            intercepts P(int; int);
            begin
              loop
                accept P(v) =>
                  start P(v + 1);       { manager rewrites the parameter }
                  await P(r);
                  finish P(r + 5)       { and the result }
              end loop
            end;
        end Adjust;
        main var r: int; begin
          r := Adjust.P(3);
          print(r)
        end
    "#);
    // caller 3 -> manager 4 -> body 40 -> manager 45
    assert_eq!(out, vec!["45"]);
}

/// An object whose manager binds the intercepted argument of `Put`
/// straight into the object variable `Last`, which `Peek` returns.
fn bind_into_object_variable(manager_body: &str) -> Vec<String> {
    run(&format!(
        r#"
        object B defines
          proc Put(v: int);
          proc Peek() returns (int);
        end B;
        object B implements
          var Last: int;
          proc Put(v: int);
          begin skip end Put;
          proc Peek() returns (int);
          begin return (Last) end Peek;
          manager
            intercepts Put(int);
            begin
              {manager_body}
            end;
        end B;
        main var n: int; begin
          B.Put(7);
          n := B.Peek();
          print(n)
        end
    "#
    ))
}

#[test]
fn statement_accept_binds_into_an_object_variable() {
    let out =
        bind_into_object_variable("while true do accept Put(Last); execute Put(Last) end while");
    assert_eq!(out, vec!["7"]);
}

#[test]
fn select_accept_binds_into_an_object_variable() {
    // The guard form must write the same variable the statement form
    // does (`check.rs`'s `Cx::bind`), not shadow it in the manager frame.
    let out = bind_into_object_variable("loop accept Put(Last) => execute Put(Last) end loop");
    assert_eq!(out, vec!["7"]);
}

#[test]
fn pending_counts_in_guards() {
    let out = run(r#"
        object G defines
          proc A();
          proc B();
        end G;
        object G implements
          proc A();
          begin skip end A;
          proc B();
          begin skip end B;
          manager
            intercepts A, B;
            begin
              loop
                accept B => execute B; print("B served, #A=", #A)
              or
                accept A when #B = 0 => execute A; print("A served")
              end loop
            end;
        end G;
        main begin
          G.A();
          G.B();
          print("main done")
        end
    "#);
    assert_eq!(out[out.len() - 1], "main done");
}

#[test]
fn par_for_runs_indexed_family() {
    let out = run(r#"
        object W defines
          proc Work(i: int);
        end W;
        object W implements
          var Total: int;
          proc Work[1..4](i: int);
          begin
            Total := Total + i
          end Work;
          manager
            intercepts Work(int);
            begin
              loop
                (k: 1..4) accept Work[k](v) => execute Work[k](v)
              end loop
            end;
        end W;
        object Probe defines
          proc Sum() returns (int);
        end Probe;
        object Probe implements
          proc Sum() returns (int);
          begin return (0) end Sum;
        end Probe;
        main begin
          par i = 1 to 4 do W.Work(i) end par;
          print("done")
        end
    "#);
    assert_eq!(out, vec!["done"]);
}

#[test]
fn local_procedure_inlined() {
    let out = run(r#"
        object X defines
          proc Outer(v: int) returns (int);
        end X;
        object X implements
          proc Outer(v: int) returns (int);
          var h: int;
          begin
            h := Helper(v);
            return (h)
          end Outer;
          local proc Helper(v: int) returns (int);
          begin return (v + 100) end Helper;
        end X;
        main var r: int; begin
          r := X.Outer(1);
          print(r)
        end
    "#);
    assert_eq!(out, vec!["101"]);
}

#[test]
fn multi_result_call_destructures() {
    let out = run(r#"
        object P defines
          proc Pair() returns (int, string);
        end P;
        object P implements
          proc Pair() returns (int, string);
          begin return (5, "five") end Pair;
        end P;
        main var n: int; var s: string; begin
          n, s := P.Pair();
          print(n, " is ", s)
        end
    "#);
    assert_eq!(out, vec!["5 is five"]);
}

#[test]
fn select_priority_prefers_smaller_pri() {
    let out = run(r#"
        object Disk defines
          proc Request(track: int) returns (int);
        end Disk;
        object Disk implements
          proc Request[1..4](track: int) returns (int);
          begin return (track) end Request;
          manager
            intercepts Request(int; int);
            var served: int;
            begin
              { let all four requests attach before serving: shortest
                (smallest track) first }
              loop
                (i: 1..4) accept Request[i](t)
                    when #Request >= 4 or served > 0 pri t =>
                  execute Request[i](t);
                  served := served + 1;
                  print("served ", t)
              end loop
            end;
        end Disk;
        object C defines
          proc Issue(t: int);
        end C;
        object C implements
          proc Issue[1..4](t: int);
          var r: int;
          begin
            r := Disk.Request(t)
          end Issue;
        end C;
        main begin
          par C.Issue(30), C.Issue(10), C.Issue(20), C.Issue(40) end par;
          print("all served")
        end
    "#);
    assert_eq!(
        out,
        vec![
            "served 10",
            "served 20",
            "served 30",
            "served 40",
            "all served"
        ]
    );
}

#[test]
fn runtime_error_is_reported_with_position() {
    let err =
        try_run(r#"main var xs: list(int); var v: int; begin v := get(xs, 3) end"#).unwrap_err();
    assert!(err.contains("out of bounds"), "{err}");
}

#[test]
fn division_by_zero_reported() {
    let err = try_run(r#"main var x: int; begin x := 1 / (x - x) end"#).unwrap_err();
    assert!(err.contains("division by zero"), "{err}");
}

#[test]
fn pop_from_an_empty_list_in_an_entry_body_is_reported() {
    let err = try_run(
        r#"
        object Q defines
          proc Take() returns (int);
        end Q;
        object Q implements
          var Store: list(int);
          proc Take() returns (int);
          begin return (pop(Store)) end Take;
        end Q;
        main var v: int; begin
          v := Q.Take()
        end
    "#,
    )
    .unwrap_err();
    assert_eq!(err, "entry `Take` failed: 8:25: pop from an empty list");
}

/// Run `src`, whose object `X`'s manager is expected to fail on the first
/// call to `X.P`. The caller only learns that the manager is gone; why it
/// went is on the handle, and is returned here.
fn x_manager_error(src: &str) -> Option<String> {
    assert_eq!(try_run(src).unwrap_err(), "object `X` is closed");
    let checked = Arc::new(check(parse(src).expect("parse")).expect("check"));
    let (out, _buf) = Output::buffer();
    SimRuntime::new()
        .run(move |rt| {
            let c = spawn_compiled(rt, &checked, out).expect("spawn");
            let x = c.handle("X").expect("object X");
            let _ = x.call("P", vec![]);
            let why = x.manager_error();
            c.shutdown();
            why.map(|e| e.to_string())
        })
        .expect("sim")
}

#[test]
fn start_without_an_accepted_call_fails_the_manager() {
    let src = r#"
        object X defines
          proc P();
        end X;
        object X implements
          proc P();
          begin skip end P;
          manager
            intercepts P;
            begin
              start P
            end;
        end X;
        main begin
          X.P()
        end
    "#;
    assert_eq!(
        x_manager_error(src).as_deref(),
        Some("11:15: no pending token for `P`")
    );
}

#[test]
fn accept_on_an_element_beyond_the_array_fails_the_manager() {
    let src = r#"
        object X defines
          proc P();
        end X;
        object X implements
          proc P[1..2]();
          begin skip end P;
          manager
            intercepts P;
            begin
              accept P[5];
              execute P[5]
            end;
        end X;
        main begin
          X.P()
        end
    "#;
    // Refused at once, not a wait for a call that can never attach.
    // Element 5 of `P[1..2]` is index 4 of the embedded API's array.
    assert_eq!(
        x_manager_error(src).as_deref(),
        Some("manager protocol violation: accept P[4]: no such array element")
    );
}

#[test]
fn full_paper_programs_run() {
    // The checked-in example programs parse, check, and execute.
    for f in [
        "bounded_buffer",
        "readers_writers",
        "dictionary",
        "spooler",
        "parallel_buffer",
    ] {
        let path = format!(
            "{}/../../examples/alps/{f}.alps",
            env!("CARGO_MANIFEST_DIR")
        );
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let out = run(&src);
        assert!(!out.is_empty(), "{f} produced no output");
    }
}

#[test]
fn combining_in_alps_source_executes_once() {
    // A trimmed dictionary: 3 identical queries, Executions counter
    // exposed through an entry.
    let out = run(r#"
        object D defines
          proc Search(w: string) returns (string);
          proc Execs() returns (int);
        end D;
        object D implements
          var Executions: int;
          proc Search[1..4](w: string) returns (string);
          begin
            sleep(100);
            Executions := Executions + 1;
            return (w + "!")
          end Search;
          proc Execs() returns (int);
          begin return (Executions) end Execs;
          manager
            intercepts Search(string; string);
            var FlightWords: list(string);
            var FlightSlots: list(int);
            var WaitSlots: list(int);
            var WaitWords: list(string);
            var k: int;
            var w: string;
            var busy: bool;
            begin
              loop
                (i: 1..4) accept Search[i](Word) =>
                  busy := false;
                  for k := 0 to len(FlightWords) - 1 do
                    if get(FlightWords, k) = Word then busy := true end if
                  end for;
                  if busy then
                    push(WaitSlots, i); push(WaitWords, Word)
                  else
                    push(FlightSlots, i); push(FlightWords, Word);
                    start Search[i](Word)
                  end if
              or
                (i: 1..4) await Search[i](Meaning) =>
                  w := "";
                  k := 0;
                  while k < len(FlightSlots) do
                    if get(FlightSlots, k) = i then
                      w := get(FlightWords, k);
                      remove(FlightSlots, k); remove(FlightWords, k)
                    else
                      k := k + 1
                    end if
                  end while;
                  finish Search[i](Meaning);
                  k := 0;
                  while k < len(WaitSlots) do
                    if get(WaitWords, k) = w then
                      finish Search[get(WaitSlots, k)](Meaning);
                      remove(WaitSlots, k); remove(WaitWords, k)
                    else
                      k := k + 1
                    end if
                  end while
              end loop
            end;
        end D;
        object C defines
          proc Ask(w: string);
        end C;
        object C implements
          proc Ask[1..4](w: string);
          var m: string;
          begin
            m := D.Search(w)
          end Ask;
        end C;
        main var n: int; begin
          par C.Ask("hot"), C.Ask("hot"), C.Ask("hot") end par;
          n := D.Execs();
          print("executions=", n)
        end
    "#);
    assert_eq!(out, vec!["executions=1"]);
}

#[test]
fn for_variable_shadows_an_outer_variable_of_another_type() {
    let out = run(r#"
        main var x: string; begin
          x := "a";
          for x := 1 to 2 do print(x) end for;
          print(x + "b")
        end
    "#);
    assert_eq!(out, vec!["1", "2", "ab"]);
}

#[test]
fn guard_quantifier_shadows_a_manager_variable_of_another_type() {
    let out = run(r#"
        object B defines
          proc P();
        end B;
        object B implements
          proc P[1..2]();
          begin skip end P;
          manager
            intercepts P;
            var i: string;
            begin
              i := "s";
              select
                (i: 1..2) accept P[i] => skip
              end select;
              print(i + "!");
              execute P
            end;
        end B;
        main begin
          B.P()
        end
    "#);
    assert_eq!(out, vec!["s!"]);
}

#[test]
fn last_reads_move_only_dead_values() {
    // The optimised walker moves a frame variable out at its last read
    // (`last_use.rs`); the reference walker always copies. Values read
    // again later — in the next round of a loop or a select loop, after a
    // loop that may not run, twice in one statement — must not move.
    let out = run(r#"
        object Box defines
          proc Put(v: list(int));
          proc Twice(x: list(int)) returns (list(int), list(int));
          proc Size() returns (int);
        end Box;
        object Box implements
          var Kept: list(list(int));
          proc Put(v: list(int));
          begin push(Kept, v) end Put;
          proc Twice(x: list(int)) returns (list(int), list(int));
          begin return (x, x) end Twice;
          proc Size() returns (int);
          begin return (len(Kept)) end Size;
          manager
            intercepts Put(list(int)), Twice, Size;
            var last: list(int);
            begin
              loop
                accept Put(v) => execute Put(v); last := v
              or
                accept Twice => execute Twice
              or
                accept Size => print("last", len(last)); execute Size
              end loop
            end;
        end Box;
        main
          var xs: list(int);
          var a: list(int);
          var b: list(int);
          var c: list(int);
          var i: int;
          var n: int;
        begin
          for i := 1 to 3 do
            push(xs, i);
            Box.Put(xs)
          end for;
          a, b := Box.Twice(xs);
          print(len(a), len(b), len(xs));
          for i := 1 to 2 do print("b", len(b)) end for;
          c := xs;
          n := Box.Size();
          n := Box.Size();
          while n > 1 do
            print("c", len(c));
            n := n - 1
          end while;
          while len(xs) > 0 do
            a := xs;
            i := pop(xs)
          end while;
          print(len(a), " ", i)
        end
    "#);
    assert_eq!(
        out,
        vec!["333", "b3", "b3", "last3", "last3", "c3", "c3", "1 3"]
    );
}

/// Every program run must free its objects, tables and IR once it is over:
/// the objects' closures own the program, so the program must not own the
/// objects' handles back. A manager that makes an entry call holds the
/// handle table until it exits.
#[test]
fn a_finished_run_frees_its_program() {
    let checked = Arc::new(
        check(
            parse(
                r#"
        object Log defines
          proc Add(n: int);
          proc Total() returns (int);
        end Log;
        object Log implements
          var sum: int;
          proc Add(n: int);
          begin sum := sum + n end Add;
          proc Total() returns (int);
          begin return (sum) end Total;
        end Log;
        object Counter defines
          proc Bump();
        end Counter;
        object Counter implements
          proc Bump();
          begin Log.Add(1) end Bump;
          manager
            intercepts Bump;
            begin
              loop accept Bump => execute Bump; Log.Add(10) end loop
            end;
        end Counter;
        main var t: int; begin
          Counter.Bump();
          Counter.Bump();
          t := Log.Total();
          print(t)
        end
    "#,
            )
            .unwrap(),
        )
        .unwrap(),
    );
    for backend in [run_checked as Backend, run_compiled] {
        assert_eq!(run_on(&checked, backend), Ok(vec!["22".to_string()]));
        assert_eq!(Arc::strong_count(&checked.unit), 1);
    }
    let c = Arc::clone(&checked);
    SimRuntime::new()
        .run(move |rt| {
            let compiled = spawn_compiled(rt, &c, Output::buffer().0).unwrap();
            compiled.run_main().unwrap();
            compiled.shutdown();
        })
        .unwrap();
    assert_eq!(Arc::strong_count(&checked.unit), 1);
}
