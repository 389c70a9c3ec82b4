//! Hostile root counts: a varint count read off the wire must never size an
//! allocation. Every format rejects a stream that claims far more roots than
//! it has bytes with a typed error instead of aborting on a huge allocation.

use std::sync::Arc;

use mheap::{ClassPath, HeapConfig, Vm};
use serlab::jsbs::{define_jsbs_classes, jsbs_class_names};
use serlab::schema::standard_entrants;
use serlab::{
    ByteWriter, JavaSerializer, KryoRegistry, KryoSerializer, SchemaRegistry, Serializer,
};
use simnet::Profile;

fn receiver() -> Vm {
    let cp = ClassPath::new();
    define_jsbs_classes(&cp);
    Vm::new("receiver", &HeapConfig::default().with_capacity(1 << 20), cp).unwrap()
}

/// A stream that is nothing but a root count of 2^40 (a six-byte varint).
fn huge_root_count() -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(16);
    w.varint(1 << 40);
    w.into_bytes()
}

fn assert_rejected(s: &dyn Serializer) {
    let mut vm = receiver();
    let r = s.deserialize(&mut vm, &huge_root_count(), &mut Profile::new());
    assert!(r.is_err(), "{} accepted a 2^40-root stream of 6 bytes", s.name());
}

#[test]
fn java_rejects_huge_root_count() {
    assert_rejected(&JavaSerializer::new());
}

#[test]
fn kryo_rejects_huge_root_count() {
    let reg = KryoRegistry::new();
    reg.register_all(jsbs_class_names()).unwrap();
    assert_rejected(&KryoSerializer::manual(Arc::new(reg)));
}

#[test]
fn schema_rejects_huge_root_count() {
    let reg = SchemaRegistry::new(jsbs_class_names());
    let colfer = standard_entrants(&reg).into_iter().next().unwrap();
    assert_rejected(&colfer);
}
