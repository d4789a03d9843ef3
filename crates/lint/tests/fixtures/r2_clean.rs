use std::collections::BTreeMap;

pub struct Store {
    pages: BTreeMap<u64, u32>,
}

impl Store {
    pub fn digest(&self) -> u64 {
        let mut acc = 0u64;
        for k in self.pages.keys() {
            acc ^= *k;
        }
        acc
    }
}
