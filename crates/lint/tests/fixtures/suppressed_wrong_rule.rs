pub fn boot(sink: &Sink) {
    // dilos-lint: allow(ns-arithmetic-safety, "fixture: names the wrong rule")
    sink.emit(0, 1);
}
