//! The nested-ping program shared by the switchless tests.
//!
//! `@Trusted TNest.ping(x)` constructs an `@Untrusted UObj(x)` and reads
//! it back, so every ping makes two *nested* crossings back out of the
//! enclave.

use montsalvat::core::class::{
    ClassDef, Instr, MethodDef, MethodKind, MethodRef, Operand, Program, CTOR,
};
use montsalvat::core::image_builder::ImageOptions;
use montsalvat::core::Trust;

/// `TNest.ping(x)` echoes `x` through a freshly constructed untrusted
/// `UObj`: one ecall plus two nested ocalls per ping.
pub fn nested_program() -> Program {
    let uobj = ClassDef::new("UObj")
        .trust(Trust::Untrusted)
        .field("val")
        .method(MethodDef::interpreted(
            CTOR,
            MethodKind::Constructor,
            1,
            1,
            vec![
                Instr::SetField {
                    recv: Operand::This,
                    field: "val".into(),
                    value: Operand::Local(0),
                },
                Instr::Return { value: None },
            ],
        ))
        .method(MethodDef::interpreted(
            "get",
            MethodKind::Instance,
            0,
            1,
            vec![
                Instr::GetField { dst: 0, recv: Operand::This, field: "val".into() },
                Instr::Return { value: Some(Operand::Local(0)) },
            ],
        ));
    let tnest = ClassDef::new("TNest")
        .trust(Trust::Trusted)
        .method(MethodDef::interpreted(
            CTOR,
            MethodKind::Constructor,
            0,
            0,
            vec![Instr::Return { value: None }],
        ))
        .method(MethodDef::interpreted(
            "ping",
            MethodKind::Instance,
            1,
            2,
            vec![
                Instr::New { dst: 1, class: "UObj".into(), args: vec![Operand::Local(0)] },
                Instr::Call {
                    dst: Some(1),
                    class: "UObj".into(),
                    recv: Operand::Local(1),
                    method: "get".into(),
                    args: vec![],
                },
                Instr::Return { value: Some(Operand::Local(1)) },
            ],
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![Instr::Return { value: None }],
    ));
    Program::new(vec![uobj, tnest, main], MethodRef::new("Main", "main"))
        .expect("nested program is well-formed")
}

/// Image options with every entry point the pings use.
pub fn nested_options() -> ImageOptions {
    ImageOptions::with_entry_points(vec![
        MethodRef::new("TNest", CTOR),
        MethodRef::new("TNest", "ping"),
        MethodRef::new("UObj", CTOR),
        MethodRef::new("UObj", "get"),
    ])
}
