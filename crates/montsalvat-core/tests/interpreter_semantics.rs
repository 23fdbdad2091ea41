//! Interpreter semantics and error paths, driven through complete
//! single-world applications (the interpreter has no public entry of
//! its own).

use montsalvat_core::annotation::Trust;
use montsalvat_core::class::{
    BinOp, ClassDef, Instr, MethodDef, MethodKind, MethodRef, Operand, Program, CTOR,
};
use montsalvat_core::exec::app::{AppConfig, Placement, SingleWorldApp};
use montsalvat_core::image_builder::{build_unpartitioned_image, ImageOptions};
use montsalvat_core::VmError;
use runtime_sim::value::Value;

/// Builds a single-class app whose static `run` has the given body.
fn app_with(body: Vec<Instr>, params: usize, locals: usize) -> SingleWorldApp {
    let class = ClassDef::new("T")
        .field("f")
        .method(MethodDef::interpreted(
            CTOR,
            MethodKind::Constructor,
            0,
            0,
            vec![Instr::Return { value: None }],
        ))
        .method(MethodDef::interpreted("run", MethodKind::Static, params, locals, body))
        .method(MethodDef::interpreted(
            "id",
            MethodKind::Instance,
            1,
            1,
            vec![Instr::Return { value: Some(Operand::Local(0)) }],
        ));
    let main = ClassDef::new("Main").trust(Trust::Neutral).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![Instr::Return { value: None }],
    ));
    let program = Program::new(vec![class, main], MethodRef::new("Main", "main")).unwrap();
    let image = build_unpartitioned_image(
        &program,
        &ImageOptions::with_entry_points(vec![
            MethodRef::new("T", "run"),
            MethodRef::new("T", "id"),
            MethodRef::new("T", CTOR),
        ]),
    )
    .unwrap();
    SingleWorldApp::launch(
        &image,
        Placement::Host,
        AppConfig { gc_helper_interval: None, ..AppConfig::default() },
    )
    .unwrap()
}

fn run(app: &SingleWorldApp, args: &[Value]) -> Result<Value, VmError> {
    app.enter(|ctx| ctx.call_static("T", "run", args))
}

#[test]
fn arithmetic_and_locals() {
    let app = app_with(
        vec![
            Instr::Const { dst: 1, value: Value::Int(10) },
            Instr::BinOp { dst: 2, op: BinOp::Mul, a: Operand::Local(0), b: Operand::Local(1) },
            Instr::BinOp {
                dst: 2,
                op: BinOp::Add,
                a: Operand::Local(2),
                b: Operand::Const(Value::Int(1)),
            },
            Instr::Return { value: Some(Operand::Local(2)) },
        ],
        1,
        3,
    );
    assert_eq!(run(&app, &[Value::Int(4)]).unwrap(), Value::Int(41));
}

#[test]
fn fallthrough_without_return_yields_unit() {
    let app = app_with(vec![Instr::Const { dst: 0, value: Value::Int(5) }], 0, 1);
    assert_eq!(run(&app, &[]).unwrap(), Value::Unit);
}

#[test]
fn this_in_static_method_is_an_error() {
    let app = app_with(vec![Instr::Return { value: Some(Operand::This) }], 0, 0);
    let err = run(&app, &[]).unwrap_err();
    assert!(matches!(err, VmError::Type(_)), "{err}");
    assert!(err.to_string().contains("this"));
}

#[test]
fn out_of_range_local_is_an_error() {
    let app = app_with(vec![Instr::Return { value: Some(Operand::Local(9)) }], 0, 1);
    let err = run(&app, &[]).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn division_by_zero_is_an_error() {
    let app = app_with(
        vec![
            Instr::BinOp {
                dst: 0,
                op: BinOp::Div,
                a: Operand::Const(Value::Int(1)),
                b: Operand::Const(Value::Int(0)),
            },
            Instr::Return { value: Some(Operand::Local(0)) },
        ],
        0,
        1,
    );
    let err = run(&app, &[]).unwrap_err();
    assert!(err.to_string().contains("zero"), "{err}");
}

#[test]
fn list_ops_require_list_fields() {
    let app = app_with(
        vec![
            Instr::New { dst: 0, class: "T".into(), args: vec![] },
            Instr::SetField {
                recv: Operand::Local(0),
                field: "f".into(),
                value: Operand::Const(Value::Int(3)),
            },
            Instr::ListPush {
                recv: Operand::Local(0),
                field: "f".into(),
                value: Operand::Const(Value::Int(1)),
            },
            Instr::Return { value: None },
        ],
        0,
        1,
    );
    let err = run(&app, &[]).unwrap_err();
    assert!(err.to_string().contains("non-list"), "{err}");
}

#[test]
fn list_push_and_len_roundtrip() {
    let app = app_with(
        vec![
            Instr::New { dst: 0, class: "T".into(), args: vec![] },
            Instr::SetField {
                recv: Operand::Local(0),
                field: "f".into(),
                value: Operand::Const(Value::List(vec![])),
            },
            Instr::ListPush {
                recv: Operand::Local(0),
                field: "f".into(),
                value: Operand::Const(Value::Int(7)),
            },
            Instr::ListPush {
                recv: Operand::Local(0),
                field: "f".into(),
                value: Operand::Const(Value::from("x")),
            },
            Instr::ListLen { dst: 1, recv: Operand::Local(0), field: "f".into() },
            Instr::Return { value: Some(Operand::Local(1)) },
        ],
        0,
        2,
    );
    assert_eq!(run(&app, &[]).unwrap(), Value::Int(2));
}

#[test]
fn instance_dispatch_and_identity_method() {
    let app = app_with(
        vec![
            Instr::New { dst: 0, class: "T".into(), args: vec![] },
            Instr::Call {
                dst: Some(1),
                class: "T".into(),
                recv: Operand::Local(0),
                method: "id".into(),
                args: vec![Operand::Const(Value::from("echo"))],
            },
            Instr::Return { value: Some(Operand::Local(1)) },
        ],
        0,
        2,
    );
    assert_eq!(run(&app, &[]).unwrap(), Value::from("echo"));
}

#[test]
fn string_concat_via_add() {
    let app = app_with(
        vec![
            Instr::BinOp {
                dst: 0,
                op: BinOp::Add,
                a: Operand::Const(Value::from("sec")),
                b: Operand::Const(Value::from("ure")),
            },
            Instr::Return { value: Some(Operand::Local(0)) },
        ],
        0,
        1,
    );
    assert_eq!(run(&app, &[]).unwrap(), Value::from("secure"));
}

#[test]
fn unknown_field_access_is_reported() {
    let app = app_with(
        vec![
            Instr::New { dst: 0, class: "T".into(), args: vec![] },
            Instr::GetField { dst: 1, recv: Operand::Local(0), field: "ghost".into() },
            Instr::Return { value: None },
        ],
        0,
        2,
    );
    let err = run(&app, &[]).unwrap_err();
    assert!(matches!(err, VmError::UnknownField { .. }), "{err}");
}

#[test]
fn compute_and_io_instructions_run() {
    let app = app_with(
        vec![
            Instr::Compute { working_set_bytes: 64 * 1024, passes: 1 },
            Instr::IoWrite { bytes: 1024 },
            Instr::IoWrite { bytes: 1024 },
            Instr::Return { value: None },
        ],
        0,
        0,
    );
    run(&app, &[]).unwrap();
    // Host placement: direct I/O, zero crossings.
    assert_eq!(app.telemetry().counter(telemetry::Counter::Ocalls), 0);
}
