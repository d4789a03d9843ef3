//! Captures a bounded window of the real event stream for the replays.
//!
//! A [`Tap`] is a `TraceObserver` attached through the public
//! `TraceSink::attach`; every tap of a run appends to one shared
//! [`Window`], tagged with the tenant whose sink it watches. The window is
//! armed when the timed region starts and stops filling at its cap, so
//! memory stays bounded however long the run is.

use std::cell::RefCell;
use std::rc::Rc;

use dilos_sim::{Ns, Observability, TraceEvent, TraceObserver};

/// One captured event.
#[derive(Clone, Copy)]
pub struct Rec {
    pub tenant: u8,
    pub t: Ns,
    pub ev: TraceEvent,
}

pub struct Window {
    pub events: Vec<Rec>,
    cap: usize,
    armed: bool,
}

pub type SharedWindow = Rc<RefCell<Window>>;

impl Window {
    /// A window that keeps the first `cap` events seen once armed.
    pub fn shared(cap: usize, armed: bool) -> SharedWindow {
        Rc::new(RefCell::new(Window {
            events: Vec::new(),
            cap,
            armed,
        }))
    }

    pub fn arm(&mut self) {
        self.armed = true;
    }
}

struct Tap {
    tenant: u8,
    window: SharedWindow,
}

impl TraceObserver for Tap {
    fn on_event(&mut self, t: Ns, ev: &TraceEvent) {
        let mut w = self.window.borrow_mut();
        if w.armed && w.events.len() < w.cap {
            let tenant = self.tenant;
            w.events.push(Rec { tenant, t, ev: *ev });
        }
    }
}

/// Which observability bundle systems boot with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObsMode {
    /// As the workload's definition says (traced or not).
    Native,
    /// `Observability::none()` everywhere.
    Dark,
    /// `Observability::tracing()` everywhere.
    Lit,
}

/// How a workload instance is instrumented: its bundles, and whether their
/// sinks feed a capture window.
#[derive(Clone)]
pub struct Instr {
    pub mode: ObsMode,
    pub window: Option<SharedWindow>,
}

impl Instr {
    pub fn native() -> Self {
        Self {
            mode: ObsMode::Native,
            window: None,
        }
    }

    /// The bundle for `tenant`, whose native configuration is traced or
    /// not; a fresh bundle per call, as boot paths require.
    pub fn bundle(&self, native_traced: bool, tenant: u8) -> Observability {
        let traced = match self.mode {
            ObsMode::Native => native_traced,
            ObsMode::Dark => false,
            ObsMode::Lit => true,
        };
        if !traced {
            return Observability::none();
        }
        let obs = Observability::tracing();
        if let Some(w) = &self.window {
            obs.trace().attach(Rc::new(RefCell::new(Tap {
                tenant,
                window: Rc::clone(w),
            })));
        }
        obs
    }
}
