//! Span and instant recording allocates only when the trace's arrays
//! grow.
//!
//! A counting global allocator wraps the system one for this test
//! binary alone (the library crates stay `forbid(unsafe_code)`). The
//! test records 10 000 spans in the shape one migration writes: five
//! job-level phase spans, an envelope, and one per-VM span per phase,
//! each labeled with `job`, `mig` and (per VM) the VM's name, plus one
//! instant with its `level` and `detail` labels. Growing the two
//! stores' arrays by doubling costs a few dozen allocations in all;
//! anything per span would cost tens of thousands.

use ninja_sim::LabelValue::Str;
use ninja_sim::{SimDuration, SimTime, Trace, TraceLevel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PHASES: [&str; 5] = ["coordination", "detach", "migration", "attach", "linkup"];

#[test]
fn recording_spans_allocates_only_to_grow_the_arrays() {
    let vm_names: Vec<String> = (0..8).map(|i| format!("job{i}-vm0")).collect();
    let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let mut trace = Trace::new();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut job = 0u64;
    while trace.all_spans().len() < 10_000 {
        let (start, vm) = (job * 10, &vm_names[job as usize % vm_names.len()]);
        for (p, name) in PHASES.into_iter().enumerate() {
            let (a, b) = (t(start + p as u64), t(start + p as u64 + 1));
            let span = trace
                .add_span("ninja", name, a, b)
                .label_u64("job", job)
                .label_u64("mig", 0);
            if name == "migration" {
                span.label_u64("wire_bytes", 21_474_836_480 + job);
            }
        }
        trace
            .add_span("ninja", "ninja", t(start), t(start + 5))
            .label_u64("job", job)
            .label_u64("mig", 0)
            .label_u64("vms", 1)
            .label("transport_before", "openib")
            .label("transport_after", "tcp");
        for (p, name) in PHASES.into_iter().enumerate() {
            let (a, b) = (t(start + p as u64), t(start + p as u64 + 1));
            trace
                .add_span("symvirt", name, a, b)
                .label("vm", vm)
                .label_u64("job", job)
                .label_u64("mig", 0);
        }
        trace
            .add_instant("alerts", "alert.fired", t(start + 5), TraceLevel::Warn)
            .label("detail", vm);
        job += 1;
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        allocations <= 64,
        "{allocations} allocations for {} spans",
        trace.all_spans().len()
    );
    // The spans read back as recorded.
    let last = trace.all_spans().last().unwrap();
    assert_eq!(last.component(), "symvirt");
    assert_eq!(last.name(), "linkup");
    assert_eq!(last.label("job").and_then(|v| v.as_u64()), Some(job - 1));
    let vm = last.label("vm").and_then(|v| v.as_str());
    assert_eq!(vm, Some(vm_names[(job as usize - 1) % 8].as_str()));
    assert_eq!(trace.instants().len(), job as usize);
    let labels: Vec<_> = trace.instants().last().unwrap().labels().collect();
    assert_eq!(
        labels,
        [("level", Str("WARN")), ("detail", Str(vm.unwrap()))]
    );
}
