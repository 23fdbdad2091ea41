//! The class and method model ("bytecode" of the reproduction).
//!
//! Montsalvat operates on compiled Java classes. Here an application is
//! a [`Program`] of [`ClassDef`]s, each holding fields and
//! [`MethodDef`]s. Method bodies come in two forms:
//!
//! - [`MethodBody::Instrs`] — a small typed instruction list the
//!   interpreter executes (used by the paper's synthetic programs and
//!   the illustrative bank example), from which call edges are derived
//!   automatically for reachability analysis;
//! - [`MethodBody::Native`] — a Rust closure with an explicit declared
//!   call-edge list (used by the realistic workloads, where writing the
//!   logic as instructions would be artificial).
//!
//! The transformer (§5.2) rewrites these definitions; the two extra body
//! forms [`MethodBody::ProxyCall`] and [`MethodBody::Relay`] exist only
//! in transformer output, mirroring the stripped proxy methods and the
//! injected `@CEntryPoint` relay methods of the paper.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use runtime_sim::value::Value;

use crate::annotation::{Side, Trust};
use crate::error::BuildError;

/// A `(class, method)` pair used for entry points and call edges.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodRef {
    /// Receiver/owning class name.
    pub class: String,
    /// Method name.
    pub method: String,
}

impl MethodRef {
    /// Convenience constructor.
    pub fn new(class: impl Into<String>, method: impl Into<String>) -> Self {
        MethodRef { class: class.into(), method: method.into() }
    }
}

impl fmt::Display for MethodRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.class, self.method)
    }
}

/// Kind of a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Constructor (named `<init>` by convention in this model).
    Constructor,
    /// Instance method (receives `this`).
    Instance,
    /// Static method.
    Static,
}

/// An operand of an interpreted instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A local register (parameters occupy the first registers).
    Local(u16),
    /// An inline constant.
    Const(Value),
    /// The receiver object.
    This,
}

/// Arithmetic operators for [`Instr::BinOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer or float depending on operands).
    Div,
}

/// One interpreted instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = value`
    Const {
        /// Destination register.
        dst: u16,
        /// Constant to load.
        value: Value,
    },
    /// `dst = new class(args...)`
    New {
        /// Destination register.
        dst: u16,
        /// Class to instantiate.
        class: String,
        /// Constructor arguments.
        args: Vec<Operand>,
    },
    /// `dst = recv.method(args...)` — `class` is the static receiver
    /// type (as in `invokevirtual`), used by reachability analysis.
    Call {
        /// Destination register (`None` discards the result).
        dst: Option<u16>,
        /// Static receiver class.
        class: String,
        /// Receiver operand.
        recv: Operand,
        /// Invoked method name.
        method: String,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// `dst = class.method(args...)` (static dispatch).
    CallStatic {
        /// Destination register (`None` discards the result).
        dst: Option<u16>,
        /// Owning class.
        class: String,
        /// Invoked method name.
        method: String,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// `dst = recv.field`
    GetField {
        /// Destination register.
        dst: u16,
        /// Receiver operand.
        recv: Operand,
        /// Field name.
        field: String,
    },
    /// `recv.field = value`
    SetField {
        /// Receiver operand.
        recv: Operand,
        /// Field name.
        field: String,
        /// Value operand.
        value: Operand,
    },
    /// `dst = a op b`
    BinOp {
        /// Destination register.
        dst: u16,
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Appends `value` to the list stored in `recv.field`.
    ListPush {
        /// Receiver operand.
        recv: Operand,
        /// List-valued field name.
        field: String,
        /// Appended operand.
        value: Operand,
    },
    /// `dst = recv.field.len()` for a list-valued field.
    ListLen {
        /// Destination register.
        dst: u16,
        /// Receiver operand.
        recv: Operand,
        /// List-valued field name.
        field: String,
    },
    /// Run a CPU kernel over `working_set_bytes` of data for `passes`
    /// passes (models e.g. "an FFT on a 1 MB double array", §6.5).
    Compute {
        /// Working-set size in bytes.
        working_set_bytes: usize,
        /// Number of passes over the working set.
        passes: u32,
    },
    /// Write `bytes` of data to this runtime's scratch file (models
    /// "writes 4 KB of data to a file", §6.5).
    IoWrite {
        /// Bytes to write.
        bytes: usize,
    },
    /// Return from the method.
    Return {
        /// Returned operand (`None` returns unit).
        value: Option<Operand>,
    },
}

/// Execution context handed to native method bodies; defined in
/// [`crate::exec::ctx`].
pub use crate::exec::ctx::Ctx;

/// Signature of a native method body.
///
/// Receives the execution context, the receiver (for instance methods),
/// and the argument values; returns the method result.
pub type NativeFn = Arc<
    dyn for<'a> Fn(
            &mut Ctx<'a>,
            Option<runtime_sim::value::ObjId>,
            &[Value],
        ) -> Result<Value, crate::error::VmError>
        + Send
        + Sync,
>;

/// A method body.
#[derive(Clone)]
pub enum MethodBody {
    /// Interpreted instruction list.
    Instrs(Vec<Instr>),
    /// Native Rust closure.
    Native(NativeFn),
    /// Transformer output: a stripped proxy method that crosses the
    /// boundary through its edge routine to the relay of the same
    /// method in the opposite runtime (Listing 2/3 of the paper).
    ProxyCall {
        /// The EDL edge routine (ecall/ocall) the crossing transitions
        /// through, as the transformer declared it.
        routine: String,
    },
    /// Transformer output: a static `@CEntryPoint` relay wrapper that
    /// looks up the mirror and invokes the target method (Listing 4).
    Relay {
        /// The concrete method this relay forwards to.
        target: String,
        /// Whether the target is a constructor (relay then instantiates
        /// the mirror and registers it).
        is_ctor: bool,
    },
}

impl fmt::Debug for MethodBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodBody::Instrs(is) => f.debug_tuple("Instrs").field(&is.len()).finish(),
            MethodBody::Native(_) => f.write_str("Native(..)"),
            MethodBody::ProxyCall { routine } => {
                f.debug_struct("ProxyCall").field("routine", routine).finish()
            }
            MethodBody::Relay { target, is_ctor } => {
                f.debug_struct("Relay").field("target", target).field("is_ctor", is_ctor).finish()
            }
        }
    }
}

/// A method definition.
#[derive(Debug, Clone)]
pub struct MethodDef {
    /// Method name (constructors use `<init>`).
    pub name: String,
    /// Kind (constructor / instance / static).
    pub kind: MethodKind,
    /// Parameter count.
    pub param_count: usize,
    /// Number of local registers (must be ≥ `param_count`; parameters
    /// occupy the first registers).
    pub locals: usize,
    /// The body.
    pub body: MethodBody,
    /// Declared call edges for native bodies (derived automatically for
    /// interpreted bodies).
    pub declared_calls: Vec<MethodRef>,
}

/// Name constructors use in this model (Java's `<init>`).
pub const CTOR: &str = "<init>";

impl MethodDef {
    /// Creates an interpreted method.
    pub fn interpreted(
        name: impl Into<String>,
        kind: MethodKind,
        param_count: usize,
        locals: usize,
        instrs: Vec<Instr>,
    ) -> Self {
        MethodDef {
            name: name.into(),
            kind,
            param_count,
            locals: locals.max(param_count),
            body: MethodBody::Instrs(instrs),
            declared_calls: Vec::new(),
        }
    }

    /// Creates a native method with explicit call edges.
    pub fn native(
        name: impl Into<String>,
        kind: MethodKind,
        param_count: usize,
        calls: Vec<MethodRef>,
        body: NativeFn,
    ) -> Self {
        MethodDef {
            name: name.into(),
            kind,
            param_count,
            locals: param_count,
            body: MethodBody::Native(body),
            declared_calls: calls,
        }
    }

    /// All call edges of this method: declared ones plus those derived
    /// from its instruction body.
    pub fn call_edges(&self) -> Vec<MethodRef> {
        let mut edges = self.declared_calls.clone();
        if let MethodBody::Instrs(instrs) = &self.body {
            for instr in instrs {
                match instr {
                    Instr::New { class, .. } => edges.push(MethodRef::new(class.clone(), CTOR)),
                    Instr::Call { class, method, .. } | Instr::CallStatic { class, method, .. } => {
                        edges.push(MethodRef::new(class.clone(), method.clone()));
                    }
                    _ => {}
                }
            }
        }
        edges
    }
}

/// Role of a class definition in a (possibly transformed) class set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ClassRole {
    /// An application class as written.
    #[default]
    Concrete,
    /// A transformer-generated proxy standing in for a concrete class
    /// that lives in the opposite runtime.
    Proxy,
}

/// A class definition.
#[derive(Debug, Clone)]
pub struct ClassDef {
    /// Class name (unique within a program).
    pub name: String,
    /// Trust annotation.
    pub trust: Trust,
    /// Role (concrete or generated proxy).
    pub role: ClassRole,
    /// Field names, in slot order. All fields are private (the paper's
    /// encapsulation assumption, §5.1); access goes through methods.
    pub fields: Vec<String>,
    /// Methods.
    pub methods: Vec<MethodDef>,
}

impl ClassDef {
    /// Creates a neutral, concrete class with no members.
    pub fn new(name: impl Into<String>) -> Self {
        ClassDef {
            name: name.into(),
            trust: Trust::Neutral,
            role: ClassRole::Concrete,
            fields: Vec::new(),
            methods: Vec::new(),
        }
    }

    /// Sets the trust annotation (builder style).
    pub fn trust(mut self, trust: Trust) -> Self {
        self.trust = trust;
        self
    }

    /// Adds a field (builder style).
    pub fn field(mut self, name: impl Into<String>) -> Self {
        self.fields.push(name.into());
        self
    }

    /// Adds a method (builder style).
    pub fn method(mut self, method: MethodDef) -> Self {
        self.methods.push(method);
        self
    }

    /// Index of a field by name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f == name)
    }

    /// Looks up a method by name.
    pub fn find_method(&self, name: &str) -> Option<&MethodDef> {
        self.method_index(name).map(|i| &self.methods[i])
    }

    /// Position of the method called `name` in [`ClassDef::methods`].
    pub fn method_index(&self, name: &str) -> Option<usize> {
        self.methods.iter().position(|m| m.name == name)
    }

    /// Whether instances of this class belong in `side`'s runtime.
    pub fn home_is(&self, side: Side) -> bool {
        self.trust.home_side() == Some(side)
    }
}

/// A complete application: classes plus the `main` entry point.
#[derive(Debug, Clone)]
pub struct Program {
    /// All application classes.
    pub classes: Vec<ClassDef>,
    /// The main entry point (must be a static method of an untrusted or
    /// neutral class; §5.3 places `main` in the untrusted image).
    pub main: MethodRef,
}

impl Program {
    /// Creates a program and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for duplicate classes/methods, dangling
    /// call edges, or a missing `main`.
    pub fn new(classes: Vec<ClassDef>, main: MethodRef) -> Result<Self, BuildError> {
        let program = Program { classes, main };
        program.validate()?;
        Ok(program)
    }

    /// Looks up a class by name.
    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.classes.iter().find(|c| c.name == name)
    }

    fn validate(&self) -> Result<(), BuildError> {
        let mut names: HashMap<&str, &ClassDef> = HashMap::new();
        for class in &self.classes {
            if names.insert(class.name.as_str(), class).is_some() {
                return Err(BuildError::DuplicateClass(class.name.clone()));
            }
            let mut method_names = std::collections::HashSet::new();
            for m in &class.methods {
                if !method_names.insert(m.name.as_str()) {
                    return Err(BuildError::DuplicateMethod {
                        class: class.name.clone(),
                        method: m.name.clone(),
                    });
                }
            }
        }
        // Call edges must resolve.
        for class in &self.classes {
            for method in &class.methods {
                for edge in method.call_edges() {
                    let target = names
                        .get(edge.class.as_str())
                        .ok_or_else(|| BuildError::UnknownClass(edge.class.clone()))?;
                    if target.find_method(&edge.method).is_none() {
                        return Err(BuildError::UnknownMethod {
                            class: edge.class.clone(),
                            method: edge.method.clone(),
                        });
                    }
                }
            }
        }
        // Main must exist and be static.
        let main_class = names.get(self.main.class.as_str()).ok_or(BuildError::MissingMain)?;
        match main_class.find_method(&self.main.method) {
            Some(m) if m.kind == MethodKind::Static => Ok(()),
            _ => Err(BuildError::MissingMain),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn static_main() -> MethodDef {
        MethodDef::interpreted(
            "main",
            MethodKind::Static,
            0,
            0,
            vec![Instr::Return { value: None }],
        )
    }

    #[test]
    fn builder_assembles_classes() {
        let c = ClassDef::new("Account")
            .trust(Trust::Trusted)
            .field("owner")
            .field("balance")
            .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 2, 2, vec![]));
        assert_eq!(c.field_index("balance"), Some(1));
        assert!(c.find_method(CTOR).is_some());
        assert!(c.home_is(Side::Trusted));
        assert!(!c.home_is(Side::Untrusted));
    }

    #[test]
    fn duplicate_classes_rejected() {
        let err = Program::new(
            vec![ClassDef::new("A").method(static_main()), ClassDef::new("A")],
            MethodRef::new("A", "main"),
        )
        .unwrap_err();
        assert_eq!(err, BuildError::DuplicateClass("A".into()));
    }

    #[test]
    fn dangling_call_edges_rejected() {
        let bad = ClassDef::new("A").method(MethodDef::interpreted(
            "main",
            MethodKind::Static,
            0,
            1,
            vec![Instr::New { dst: 0, class: "Ghost".into(), args: vec![] }],
        ));
        let err = Program::new(vec![bad], MethodRef::new("A", "main")).unwrap_err();
        assert_eq!(err, BuildError::UnknownClass("Ghost".into()));
    }

    #[test]
    fn missing_or_nonstatic_main_rejected() {
        let err = Program::new(vec![ClassDef::new("A")], MethodRef::new("A", "main")).unwrap_err();
        assert_eq!(err, BuildError::MissingMain);

        let inst_main = ClassDef::new("A").method(MethodDef::interpreted(
            "main",
            MethodKind::Instance,
            0,
            0,
            vec![],
        ));
        let err = Program::new(vec![inst_main], MethodRef::new("A", "main")).unwrap_err();
        assert_eq!(err, BuildError::MissingMain);
    }

    #[test]
    fn call_edges_derived_from_instructions() {
        let m = MethodDef::interpreted(
            "run",
            MethodKind::Static,
            0,
            2,
            vec![
                Instr::New { dst: 0, class: "B".into(), args: vec![] },
                Instr::Call {
                    dst: None,
                    class: "B".into(),
                    recv: Operand::Local(0),
                    method: "go".into(),
                    args: vec![],
                },
                Instr::CallStatic {
                    dst: None,
                    class: "C".into(),
                    method: "s".into(),
                    args: vec![],
                },
            ],
        );
        let edges = m.call_edges();
        assert_eq!(
            edges,
            vec![MethodRef::new("B", CTOR), MethodRef::new("B", "go"), MethodRef::new("C", "s"),]
        );
    }

    #[test]
    fn native_methods_carry_declared_edges() {
        let body: NativeFn = Arc::new(|_, _, _| Ok(Value::Unit));
        let m = MethodDef::native(
            "write",
            MethodKind::Instance,
            1,
            vec![MethodRef::new("Store", "put")],
            body,
        );
        assert_eq!(m.call_edges(), vec![MethodRef::new("Store", "put")]);
    }
}
