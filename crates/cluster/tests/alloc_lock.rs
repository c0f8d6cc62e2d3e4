//! Allocation lock for the journal's append path.
//!
//! A counting global allocator shows that [`Wal::append`] and
//! [`Wal::append_with_fault`] encode each record straight into the log:
//! with spare capacity in the log's buffer, journaling a record of any
//! kind makes no heap allocation at all — no payload buffer, no framed
//! copy, no per-record collection.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use goldilocks_cluster::{
    ClusterState, ContainerRuntime, Disposition, PowerState, Transition, Wal, WalEvent, WriteFault,
};
use goldilocks_placement::Placement;
use goldilocks_topology::ServerId;

/// Counts allocation events (alloc + realloc) per thread; delegates to the
/// system allocator.
struct CountingAlloc;

thread_local! {
    /// This thread's allocation events: the harness and sibling tests
    /// allocate on their own threads, and the measured appends run on the
    /// measuring thread.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the slot is unavailable while a thread is torn down.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocation events made so far on the calling thread.
fn alloc_count() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// One event of every kind, with non-empty collections.
fn every_kind() -> Vec<WalEvent> {
    let intended = Placement {
        assignment: vec![Some(ServerId(4)), None, Some(ServerId(0))],
    };
    let mut runtime = ContainerRuntime::new();
    runtime
        .apply(Transition::Start {
            container: 0,
            on: ServerId(4),
        })
        .expect("a fresh container starts");
    vec![
        WalEvent::EpochBegin {
            epoch: 7,
            rng_state: 0xDEAD_BEEF,
        },
        WalEvent::Decision {
            epoch: 7,
            fallback: 1,
            shed: 2,
            intended: intended.clone(),
        },
        WalEvent::Unit {
            container: 0,
            disposition: Disposition::Applied,
            rng_state: 9,
            transitions: vec![Transition::Migrate {
                container: 0,
                from: ServerId(1),
                to: ServerId(4),
            }],
        },
        WalEvent::EpochCommit {
            epoch: 7,
            rng_state: 10,
            gate: vec![PowerState::On, PowerState::Booting { remaining_s: 30 }],
        },
        WalEvent::Snapshot(ClusterState::capture(
            Some(7),
            &intended,
            &runtime,
            Some(&[PowerState::On, PowerState::Off]),
            Some(10),
        )),
        WalEvent::Service(vec![6, 0, 0xFF, 0x7A]),
    ]
}

#[test]
fn appends_into_spare_capacity_allocate_nothing() {
    let events = every_kind();
    let mut wal = Wal::from_bytes(Vec::with_capacity(1 << 16));

    let before = alloc_count();
    for _ in 0..100 {
        for ev in &events {
            wal.append(ev);
            wal.append_with_fault(ev, None).expect("no fault injected");
        }
    }
    // A torn append and its repair rewrite bytes already reserved.
    let torn = wal.append_with_fault(&events[1], Some(WriteFault::ShortWrite(11)));
    let appended = alloc_count() - before;

    assert!(torn.is_err(), "a short write is not durable");
    assert_eq!(
        appended, 0,
        "1 201 appends into spare capacity made {appended} allocations"
    );
    assert_eq!(Wal::decode(wal.bytes()).events.len(), 1_200);
}
