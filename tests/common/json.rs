//! A minimal JSON parser, enough to read back every artefact `repro`
//! writes and check its schema by an actual parse. Test-only: the library
//! writes JSON (`dilos_bench::json`) and never reads it.

// Each test binary uses its own subset of the accessors.
#![allow(dead_code)]

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items of an array (empty for anything else).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The members of an object, in document order (empty for anything
    /// else).
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// The keys of an object, in document order.
    pub fn keys(&self) -> Vec<&str> {
        self.members().iter().map(|(k, _)| k.as_str()).collect()
    }

    /// Parses one document; anything after it but whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        Parser {
            s: text.as_bytes(),
            i: 0,
        }
        .parse()
    }
}

/// `doc["key"]`: the member, or `Null` when absent or not an object.
impl std::ops::Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        static NULL: Json = Json::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.i,
                self.s.get(self.i).map(|&c| c as char)
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn literal(&mut self, lit: &str, val: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(val)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        // Bytes, not chars: multi-byte UTF-8 passes through unescaped.
        let mut out = Vec::new();
        while let Some(&b) = self.s.get(self.i) {
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                0x00..=0x1f => return Err(format!("raw control byte at {}", self.i - 1)),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("dangling escape")?;
                    self.i += 1;
                    let c = match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            char::from_u32(code).ok_or("bad \\u code point")?
                        }
                        b'"' | b'\\' | b'/' => esc as char,
                        other => return Err(format!("bad escape \\{}", other as char)),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while let Some(&b) = self.s.get(self.i) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.s[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => {
                self.eat(b'{')?;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.eat(b'}')?;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek() {
                        Some(b',') => self.eat(b',')?,
                        _ => break,
                    }
                }
                self.eat(b'}')?;
                Ok(Json::Obj(fields))
            }
            b'[' => {
                self.eat(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.eat(b']')?;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.eat(b',')?,
                        _ => break,
                    }
                }
                self.eat(b']')?;
                Ok(Json::Arr(items))
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.ws();
        if self.i == self.s.len() {
            Ok(v)
        } else {
            Err(format!("trailing garbage at byte {}", self.i))
        }
    }
}
