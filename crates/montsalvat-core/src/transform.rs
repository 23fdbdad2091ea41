//! The bytecode transformer (§5.2).
//!
//! For every annotated class the transformer produces, exactly as the
//! paper's Javassist pass does:
//!
//! - a **proxy class** for the opposite runtime: same method names, all
//!   bodies stripped and replaced by transitions to the corresponding
//!   relay routine (Listings 2 and 3); proxy fields are removed and a
//!   single `__hash` field added;
//! - **relay methods** injected into the concrete class: static
//!   `@CEntryPoint`-style wrappers that look up the mirror in the
//!   mirror-proxy registry and forward the call (Listing 4), with
//!   constructor relays instead instantiating and registering the
//!   mirror.
//!
//! Neutral classes are not modified. The transformer also emits the EDL
//! interface declaring one edge routine per relay (§5.3, "SGX code
//! generator").

use sgx_sim::edl::{Direction, EdlFn, EdlParam, EdlSpec, EdlType};

use crate::annotation::Trust;
use crate::class::{ClassDef, ClassRole, MethodBody, MethodDef, MethodKind, MethodRef, Program};

/// Field name that carries the proxy hash in generated proxy classes.
pub const PROXY_HASH_FIELD: &str = "__hash";

/// Name of the relay method generated for `method`.
pub fn relay_name(method: &str) -> String {
    format!("relay${method}")
}

/// Whether `method` is a generated relay method.
pub fn is_relay_name(method: &str) -> bool {
    method.starts_with("relay$")
}

/// Name of the edge routine (ecall/ocall) generated for `method` of
/// `class`. The transformer declares it in the EDL and stamps it on the
/// proxy method that crosses through it.
pub fn edge_routine_name(trust: Trust, class: &str, method: &str) -> String {
    let prefix = match trust {
        Trust::Trusted => "ecall",
        Trust::Untrusted => "ocall",
        Trust::Neutral => "local",
    };
    let mut name = format!("{prefix}_relay_{class}_");
    name.extend(method.chars().map(|c| if c.is_alphanumeric() { c } else { '_' }));
    name
}

/// Output of the bytecode transformer: the three class sets consumed by
/// native-image generation (§5.3) plus the generated EDL interface.
#[derive(Debug, Clone)]
pub struct TransformedProgram {
    /// Set *T*: modified trusted classes (with relays) and proxies for
    /// untrusted classes.
    pub trusted_set: Vec<ClassDef>,
    /// Set *U*: modified untrusted classes (with relays) and proxies for
    /// trusted classes.
    pub untrusted_set: Vec<ClassDef>,
    /// Set *N*: unmodified neutral classes.
    pub neutral_set: Vec<ClassDef>,
    /// The application's main entry point.
    pub main: MethodRef,
    /// Generated enclave interface.
    pub edl: EdlSpec,
}

impl TransformedProgram {
    /// All relay methods of annotated classes with `trust`, as
    /// `MethodRef`s (these become image entry points).
    pub fn relay_entry_points(&self, trust: Trust) -> Vec<MethodRef> {
        let set = match trust {
            Trust::Trusted => &self.trusted_set,
            Trust::Untrusted => &self.untrusted_set,
            Trust::Neutral => return Vec::new(),
        };
        let mut entries = Vec::new();
        for class in set {
            if class.role == ClassRole::Concrete && class.trust == trust {
                for m in &class.methods {
                    if is_relay_name(&m.name) {
                        entries.push(MethodRef::new(class.name.clone(), m.name.clone()));
                    }
                }
            }
        }
        entries
    }
}

/// Runs the transformer over a validated program.
pub fn transform(program: &Program) -> TransformedProgram {
    let mut trusted_set = Vec::new();
    let mut untrusted_set = Vec::new();
    let mut neutral_set = Vec::new();
    let mut edl = EdlSpec::new("montsalvat_enclave");

    for class in &program.classes {
        match class.trust {
            Trust::Neutral => neutral_set.push(class.clone()),
            Trust::Trusted => {
                let concrete = with_relays(class);
                let proxy = make_proxy(class);
                declare_edges(&mut edl, &proxy, Direction::Ecall);
                trusted_set.push(concrete);
                untrusted_set.push(proxy);
            }
            Trust::Untrusted => {
                let concrete = with_relays(class);
                let proxy = make_proxy(class);
                declare_edges(&mut edl, &proxy, Direction::Ocall);
                untrusted_set.push(concrete);
                trusted_set.push(proxy);
            }
        }
    }

    TransformedProgram { trusted_set, untrusted_set, neutral_set, main: program.main.clone(), edl }
}

/// Clones `class` and injects one relay method per original method.
fn with_relays(class: &ClassDef) -> ClassDef {
    let mut out = class.clone();
    for method in &class.methods {
        let is_ctor = method.kind == MethodKind::Constructor;
        out.methods.push(MethodDef {
            name: relay_name(&method.name),
            kind: MethodKind::Static,
            // Relays receive the proxy hash plus the original arguments;
            // the hash travels out of band in this model, so the count
            // matches the original method.
            param_count: method.param_count,
            locals: method.param_count,
            body: MethodBody::Relay { target: method.name.clone(), is_ctor },
            // The relay makes its target reachable (Fig. 2).
            declared_calls: vec![MethodRef::new(class.name.clone(), method.name.clone())],
        });
    }
    out
}

/// Builds the proxy class: fields replaced by `__hash`, methods stripped
/// to transitions through their edge routines.
fn make_proxy(class: &ClassDef) -> ClassDef {
    ClassDef {
        name: class.name.clone(),
        trust: class.trust,
        role: ClassRole::Proxy,
        fields: vec![PROXY_HASH_FIELD.to_owned()],
        methods: class
            .methods
            .iter()
            .map(|m| MethodDef {
                name: m.name.clone(),
                kind: m.kind,
                param_count: m.param_count,
                locals: m.param_count,
                body: MethodBody::ProxyCall {
                    routine: edge_routine_name(class.trust, &class.name, &m.name),
                },
                declared_calls: Vec::new(),
            })
            .collect(),
    }
}

/// Declares in the EDL the edge routine each method of `proxy` crosses
/// through.
fn declare_edges(edl: &mut EdlSpec, proxy: &ClassDef, direction: Direction) {
    let routines = proxy.methods.iter().filter_map(|m| match &m.body {
        MethodBody::ProxyCall { routine } => Some(routine),
        _ => None,
    });
    for routine in routines {
        edl.push(EdlFn {
            name: routine.clone(),
            ret: EdlType::Buffer { size_param: "ret_len".into() },
            params: vec![
                EdlParam::new("hash", EdlType::Long),
                EdlParam::new("args", EdlType::Buffer { size_param: "args_len".into() }),
                EdlParam::new("args_len", EdlType::Size),
                EdlParam::new("ret_len", EdlType::Size),
            ],
            direction,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{Instr, CTOR};
    use crate::samples::bank_program;

    #[test]
    fn annotated_classes_split_into_both_sets() {
        let tp = transform(&bank_program());
        let names = |set: &[ClassDef]| {
            let mut v: Vec<(String, ClassRole)> =
                set.iter().map(|c| (c.name.clone(), c.role)).collect();
            v.sort();
            v
        };
        // Trusted set: concrete Account + AccountRegistry, proxy Person + Main.
        assert_eq!(
            names(&tp.trusted_set),
            vec![
                ("Account".into(), ClassRole::Concrete),
                ("AccountRegistry".into(), ClassRole::Concrete),
                ("Main".into(), ClassRole::Proxy),
                ("Person".into(), ClassRole::Proxy),
            ]
        );
        assert_eq!(
            names(&tp.untrusted_set),
            vec![
                ("Account".into(), ClassRole::Proxy),
                ("AccountRegistry".into(), ClassRole::Proxy),
                ("Main".into(), ClassRole::Concrete),
                ("Person".into(), ClassRole::Concrete),
            ]
        );
    }

    #[test]
    fn proxies_are_stripped_to_hash_and_transitions() {
        let tp = transform(&bank_program());
        let proxy_account = tp
            .untrusted_set
            .iter()
            .find(|c| c.name == "Account" && c.role == ClassRole::Proxy)
            .unwrap();
        assert_eq!(proxy_account.fields, vec![PROXY_HASH_FIELD.to_owned()]);
        for m in &proxy_account.methods {
            match &m.body {
                MethodBody::ProxyCall { routine } => {
                    assert_eq!(*routine, edge_routine_name(Trust::Trusted, "Account", &m.name));
                    assert!(tp.edl.contains(routine), "{routine} is declared in the EDL");
                }
                other => panic!("proxy method must be a transition, got {other:?}"),
            }
        }
        // Same public methods as the original.
        assert!(proxy_account.find_method(CTOR).is_some());
        assert!(proxy_account.find_method("updateBalance").is_some());
    }

    #[test]
    fn relays_are_static_and_target_their_method() {
        let tp = transform(&bank_program());
        let account = tp
            .trusted_set
            .iter()
            .find(|c| c.name == "Account" && c.role == ClassRole::Concrete)
            .unwrap();
        let relay = account.find_method(&relay_name("updateBalance")).unwrap();
        assert_eq!(relay.kind, MethodKind::Static);
        match &relay.body {
            MethodBody::Relay { target, is_ctor } => {
                assert_eq!(target, "updateBalance");
                assert!(!is_ctor);
            }
            other => panic!("expected relay body, got {other:?}"),
        }
        let ctor_relay = account.find_method(&relay_name(CTOR)).unwrap();
        assert!(matches!(&ctor_relay.body, MethodBody::Relay { is_ctor: true, .. }));
        // Relay edge makes the target reachable.
        assert_eq!(relay.declared_calls, vec![MethodRef::new("Account", "updateBalance")]);
    }

    #[test]
    fn neutral_classes_are_untouched() {
        let tp = transform(&bank_program());
        assert_eq!(tp.neutral_set.len(), 1);
        let util = &tp.neutral_set[0];
        assert_eq!(util.name, "StringUtil");
        assert!(util.methods.iter().all(|m| !is_relay_name(&m.name)));
    }

    #[test]
    fn edl_declares_one_routine_per_annotated_method() {
        let program = bank_program();
        let tp = transform(&program);
        let annotated_methods: usize = program
            .classes
            .iter()
            .filter(|c| c.trust.is_annotated())
            .map(|c| c.methods.len())
            .sum();
        assert_eq!(tp.edl.trusted.len() + tp.edl.untrusted.len(), annotated_methods);
        assert!(tp.edl.contains(&edge_routine_name(Trust::Trusted, "Account", "updateBalance")));
        assert!(tp.edl.contains(&edge_routine_name(Trust::Untrusted, "Person", "getAccount")));
    }

    #[test]
    fn relay_entry_points_cover_all_relays() {
        let tp = transform(&bank_program());
        let trusted_entries = tp.relay_entry_points(Trust::Trusted);
        // Account has 3 methods, AccountRegistry has 3 -> 6 relays.
        assert_eq!(trusted_entries.len(), 6);
        assert!(trusted_entries
            .iter()
            .all(|e| is_relay_name(&e.method)
                && (e.class == "Account" || e.class == "AccountRegistry")));
    }

    #[test]
    fn transform_is_idempotent_on_instruction_bodies() {
        // Transforming must not alter original method bodies.
        let program = bank_program();
        let tp = transform(&program);
        let orig = program.class("Person").unwrap().find_method("transfer").unwrap();
        let kept = tp
            .untrusted_set
            .iter()
            .find(|c| c.name == "Person" && c.role == ClassRole::Concrete)
            .unwrap()
            .find_method("transfer")
            .unwrap();
        match (&orig.body, &kept.body) {
            (MethodBody::Instrs(a), MethodBody::Instrs(b)) => assert_eq!(a, b),
            _ => panic!("expected instruction bodies"),
        }
        let _ = Instr::Return { value: None }; // keep Instr import exercised
    }
}
