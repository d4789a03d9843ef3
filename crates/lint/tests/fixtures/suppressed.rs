pub fn boot(sink: &Sink) {
    // dilos-lint: allow(calendar-time-only, "fixture: the boot record is stamped at time zero")
    sink.emit(0, 1);
}

pub fn noop() -> u32 {
    // dilos-lint: allow(ns-arithmetic-safety, "fixture: shields nothing")
    7
}
