//! Wire-format header compression — the paper's named future-work item
//! (§5.2: "future work could focus on compressing headers and paddings
//! during sending").
//!
//! In compressed mode the sender clones objects into the stream in a
//! *compact wire format* (no `baddr` slot, 4-byte array length), shaving
//! one-plus words of header per object — the dominant component of
//! Skyway's byte overhead (the `extra_bytes` harness measures headers at
//! ~45 % of the stream). The price is exactly the one the paper's design
//! avoided: the receiver can no longer place chunks into the heap as-is;
//! it must *expand* each object back to the local format, paying a
//! per-object copy before the usual absolutization scan. The `ablations`
//! harness quantifies the trade: bytes saved vs receive time added.
//!
//! Expansion is a pure byte-stream transformation: a first pass over the
//! wire chunks sizes every object in both formats and builds the
//! wire-logical → expanded-logical offset map; a second pass emits the
//! expanded stream (headers widened, reference slots re-based through the
//! map). The expanded stream then flows through the ordinary
//! [`crate::receiver::SkywayObjectInputStream`], so GC interaction, card
//! dirtying, root recovery and roll-back on rejection are shared, not
//! duplicated. Expansion places nothing in the heap, so a stream it
//! rejects leaves nothing to roll back.

use std::collections::HashMap;

use mheap::layout::align8;
use mheap::{KlassKind, LayoutSpec, Vm};
use simnet::NodeId;

use crate::buffer::{TOP_MARK, TOP_REF};
use crate::registry::TypeDirectory;
use crate::{Error, Result};

/// The compact wire format used by compressed transfers.
pub const WIRE_SPEC: LayoutSpec = LayoutSpec { with_baddr: false, array_len_size: 4 };

fn load_word(bytes: &[u8], off: u64) -> Result<u64> {
    let o = off as usize;
    bytes
        .get(o..o + 8)
        .map(|s| {
            let mut a = [0u8; 8];
            a.copy_from_slice(s);
            u64::from_le_bytes(a)
        })
        .ok_or(Error::BadFrame(format!("wire offset {off} out of range")))
}

fn load_u32(bytes: &[u8], off: u64) -> Result<u32> {
    let o = off as usize;
    bytes
        .get(o..o + 4)
        .map(|s| {
            let mut a = [0u8; 4];
            a.copy_from_slice(s);
            u32::from_le_bytes(a)
        })
        .ok_or(Error::BadFrame(format!("wire offset {off} out of range")))
}

struct WireKlass {
    kind: KlassKind,
    elem_size: u64,
    /// Exact payload length (instances), local-format reference offsets,
    /// and the object sizes in both formats.
    payload_exact: u64,
    local_size: u64,
    wire_size: u64,
    local_ref_offsets: Vec<u64>,
}

/// Expands a compact-wire-format stream into the local object format of
/// `vm`, returning the expanded byte stream (markers preserved) ready for
/// the ordinary receiver.
///
/// # Errors
/// Corrupt-stream, registry, and class-loading errors.
pub fn expand_stream(
    vm: &Vm,
    dir: &TypeDirectory,
    node: NodeId,
    wire_chunks: &[&[u8]],
    local_spec: LayoutSpec,
) -> Result<Vec<u8>> {
    let wire = WIRE_SPEC;
    let mut klasses: HashMap<u32, WireKlass> = HashMap::new();
    let resolve = |tid: u32| -> Result<WireKlass> {
        let name =
            dir.name_for_tid(node, tid, obs::global().tracer(), obs::TraceCtx::NONE, &vm.name)?;
        let kid = vm.load_class(&name).map_err(Error::Heap)?;
        let k = vm.klasses().get(kid).map_err(Error::Heap)?;
        let lhdr = local_spec.instance_header();
        let payload_exact =
            k.fields.iter().map(|f| f.offset + u64::from(f.ty.size())).max().unwrap_or(lhdr) - lhdr;
        Ok(WireKlass {
            kind: k.kind,
            elem_size: match k.kind {
                KlassKind::Instance => 0,
                _ => u64::from(k.elem_size().map_err(Error::Heap)?),
            },
            payload_exact,
            local_size: align8(lhdr + payload_exact),
            wire_size: align8(wire.instance_header() + payload_exact),
            local_ref_offsets: k
                .fields
                .iter()
                .filter(|f| matches!(f.ty, mheap::FieldType::Ref))
                .map(|f| f.offset)
                .collect(),
        })
    };

    // ---- pass 1: size every record, build the offset map ----
    // The wire stream is gapless across chunks; concatenate for simplicity
    // (chunks only matter for streaming arrival, which already happened).
    let total: usize = wire_chunks.iter().map(|c| c.len()).sum();
    let mut stream = Vec::with_capacity(total);
    for c in wire_chunks {
        stream.extend_from_slice(c);
    }
    let mut map: HashMap<u64, u64> = HashMap::new(); // wire logical → expanded logical
    let mut at: u64 = 0;
    let mut out_at: u64 = 0;
    let end = stream.len() as u64;
    while at < end {
        let w = load_word(&stream, at)?;
        if w == TOP_MARK {
            map.insert(at, out_at);
            at += 8;
            out_at += 8;
            continue;
        }
        if w == TOP_REF {
            map.insert(at, out_at);
            at += 16;
            out_at += 16;
            continue;
        }
        let tid = load_word(&stream, at + 8)?;
        if tid > u64::from(u32::MAX) {
            return Err(Error::BadFrame(format!("implausible wire tID {tid:#x}")));
        }
        let tid = tid as u32;
        if let std::collections::hash_map::Entry::Vacant(e) = klasses.entry(tid) {
            let wk = resolve(tid)?;
            e.insert(wk);
        }
        let wk = &klasses[&tid];
        let (wsize, lsize) = match wk.kind {
            KlassKind::Instance => (wk.wire_size, wk.local_size),
            _ => {
                let len = match wire.array_len_size {
                    4 => u64::from(load_u32(&stream, at + wire.array_len_off())?),
                    _ => load_word(&stream, at + wire.array_len_off())?,
                };
                (
                    align8(wire.array_header() + len * wk.elem_size),
                    align8(local_spec.array_header() + len * wk.elem_size),
                )
            }
        };
        map.insert(at, out_at);
        at += wsize;
        out_at += lsize;
    }

    // ---- pass 2: emit the expanded stream ----
    let mut out = vec![0u8; out_at as usize];
    let put_word = |buf: &mut Vec<u8>, off: u64, v: u64| {
        buf[off as usize..off as usize + 8].copy_from_slice(&v.to_le_bytes());
    };
    let mut at: u64 = 0;
    while at < end {
        let w = load_word(&stream, at)?;
        let dst = map[&at];
        if w == TOP_MARK {
            put_word(&mut out, dst, TOP_MARK);
            at += 8;
            continue;
        }
        if w == TOP_REF {
            put_word(&mut out, dst, TOP_REF);
            let target = load_word(&stream, at + 8)?;
            let translated = if target == 0 {
                return Err(Error::BadFrame("null top reference".into()));
            } else {
                *map.get(&(target - 1)).ok_or(Error::DanglingRelativeAddr(target - 1))? + 1
            };
            put_word(&mut out, dst + 8, translated);
            at += 16;
            continue;
        }
        let tid = load_word(&stream, at + 8)? as u32;
        let wk = &klasses[&tid];
        // Headers: mark + klass(tid) + zeroed baddr.
        put_word(&mut out, dst, w);
        put_word(&mut out, dst + 8, u64::from(tid));
        if local_spec.with_baddr {
            put_word(&mut out, dst + local_spec.baddr_off().map_err(Error::Heap)?, 0);
        }
        let (wsize, copy_hdr_src, copy_hdr_dst, payload_len) = match wk.kind {
            KlassKind::Instance => (
                wk.wire_size,
                WIRE_SPEC.instance_header(),
                local_spec.instance_header(),
                wk.payload_exact,
            ),
            _ => {
                let len = u64::from(load_u32(&stream, at + WIRE_SPEC.array_len_off())?);
                match local_spec.array_len_size {
                    8 => put_word(&mut out, dst + local_spec.array_len_off(), len),
                    4 => out[(dst + local_spec.array_len_off()) as usize
                        ..(dst + local_spec.array_len_off()) as usize + 4]
                        .copy_from_slice(&(len as u32).to_le_bytes()),
                    n => return Err(Error::BadFrame(format!("array_len_size {n}"))),
                }
                (
                    align8(WIRE_SPEC.array_header() + len * wk.elem_size),
                    WIRE_SPEC.array_header(),
                    local_spec.array_header(),
                    len * wk.elem_size,
                )
            }
        };
        // Bulk-copy the payload.
        if payload_len > 0 {
            let src = (at + copy_hdr_src) as usize;
            let d = (dst + copy_hdr_dst) as usize;
            let payload = stream
                .get(src..src + payload_len as usize)
                .ok_or(Error::BadFrame("wire payload out of range".into()))?
                .to_vec();
            out[d..d + payload_len as usize].copy_from_slice(&payload);
        }
        // Re-base reference slots through the offset map.
        let rebase = |out: &mut Vec<u8>, slot: u64| -> Result<()> {
            let s = out
                .get(slot as usize..slot as usize + 8)
                .ok_or_else(|| Error::BadFrame("rebase slot out of range".into()))?;
            let mut a = [0u8; 8];
            a.copy_from_slice(s);
            let v = u64::from_le_bytes(a);
            if v != 0 {
                let t = *map.get(&(v - 1)).ok_or(Error::DanglingRelativeAddr(v - 1))?;
                out[slot as usize..slot as usize + 8].copy_from_slice(&(t + 1).to_le_bytes());
            }
            Ok(())
        };
        match wk.kind {
            KlassKind::Instance => {
                let lhdr = local_spec.instance_header();
                for &loff in &wk.local_ref_offsets {
                    rebase(&mut out, dst + lhdr + (loff - lhdr))?;
                }
            }
            KlassKind::RefArray => {
                let len = u64::from(load_u32(&stream, at + WIRE_SPEC.array_len_off())?);
                let base = dst + local_spec.array_header();
                for i in 0..len {
                    rebase(&mut out, base + i * 8)?;
                }
            }
            KlassKind::PrimArray(_) => {}
        }
        at += wsize;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_spec_is_compact() {
        assert_eq!(WIRE_SPEC.instance_header(), 16);
        assert_eq!(WIRE_SPEC.array_header(), 24);
    }
}
