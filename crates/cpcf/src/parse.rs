//! Parser for the Racket-like surface syntax of CPCF.
//!
//! The grammar covers what the benchmark corpus needs: modules with
//! contracted exports, `define` (including function shorthand), `struct`
//! declarations, `lambda`/`let`/`letrec`/`let*`/`cond`/`when`/`unless`,
//! quotation of literals and lists, contract combinators (`->`, `and/c`,
//! `or/c`, `cons/c`, `listof`, `one-of/c`, `any/c`) and the primitive
//! operations of [`crate::syntax::Prim`]. Opaque values are written `•` or
//! `(opaque)`.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::syntax::{Definition, Expr, Label, Module, Prim, Program, Provide, StructDef};

/// A parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of the problem.
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Sexp {
    Atom(String),
    Str(String),
    List(Vec<Sexp>),
}

fn tokenize(input: &str) -> Result<Vec<Sexp>, ParseError> {
    let mut tokens: Vec<String> = Vec::new();
    let mut current = String::new();
    let mut chars = input.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            ';' => {
                for next in chars.by_ref() {
                    if next == '\n' {
                        break;
                    }
                }
            }
            '"' => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
                let mut literal = String::from("\"");
                for next in chars.by_ref() {
                    if next == '"' {
                        break;
                    }
                    literal.push(next);
                }
                tokens.push(literal);
            }
            '(' | ')' | '[' | ']' | '\'' => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
                tokens.push(c.to_string());
            }
            c if c.is_whitespace() => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    let mut position = 0;
    let mut sexps = Vec::new();
    while position < tokens.len() {
        sexps.push(parse_sexp(&tokens, &mut position)?);
    }
    Ok(sexps)
}

fn parse_sexp(tokens: &[String], position: &mut usize) -> Result<Sexp, ParseError> {
    let Some(token) = tokens.get(*position) else {
        return Err(ParseError::new("unexpected end of input"));
    };
    *position += 1;
    match token.as_str() {
        "(" | "[" => {
            let mut items = Vec::new();
            loop {
                match tokens.get(*position).map(String::as_str) {
                    None => return Err(ParseError::new("unclosed parenthesis")),
                    Some(")") | Some("]") => {
                        *position += 1;
                        return Ok(Sexp::List(items));
                    }
                    Some(_) => items.push(parse_sexp(tokens, position)?),
                }
            }
        }
        ")" | "]" => Err(ParseError::new("unexpected closing parenthesis")),
        "'" => {
            let quoted = parse_sexp(tokens, position)?;
            Ok(Sexp::List(vec![Sexp::Atom("quote".to_string()), quoted]))
        }
        s if s.starts_with('"') => Ok(Sexp::Str(s[1..].to_string())),
        atom => Ok(Sexp::Atom(atom.to_string())),
    }
}

/// The parser: holds the label counter and the global naming environment.
#[derive(Debug, Default)]
pub struct Parser {
    next_label: u32,
    globals: HashSet<String>,
    structs: HashMap<String, StructDef>,
}

impl Parser {
    /// Creates a parser.
    pub fn new() -> Self {
        Parser::default()
    }

    /// The struct declarations discovered while parsing.
    pub fn structs(&self) -> impl Iterator<Item = &StructDef> + '_ {
        self.structs.values()
    }

    fn fresh_label(&mut self) -> Label {
        let label = Label(self.next_label);
        self.next_label += 1;
        label
    }

    /// Parses a whole program (one or more `module` forms, or a bare list of
    /// definitions treated as a module called `"main"`).
    pub fn parse_program(&mut self, input: &str) -> Result<Program, ParseError> {
        let forms = tokenize(input)?;
        if forms.is_empty() {
            return Err(ParseError::new("empty program"));
        }
        let is_module_form = |s: &Sexp| {
            matches!(s, Sexp::List(items)
                if matches!(items.first(), Some(Sexp::Atom(k)) if k == "module"))
        };
        let module_forms: Vec<Vec<Sexp>> = if forms.iter().all(is_module_form) {
            forms
                .into_iter()
                .map(|f| match f {
                    Sexp::List(items) => items,
                    Sexp::Atom(_) | Sexp::Str(_) => unreachable!("checked module form"),
                })
                .collect()
        } else {
            let mut wrapped = vec![
                Sexp::Atom("module".to_string()),
                Sexp::Atom("main".to_string()),
            ];
            wrapped.extend(forms);
            vec![wrapped]
        };

        // First pass: collect global names and struct declarations across all
        // modules so definitions can refer to each other and shadow prims.
        for items in &module_forms {
            for form in &items[2..] {
                self.scan_form(form)?;
            }
        }

        let mut program = Program::default();
        for items in &module_forms {
            program.modules.push(self.parse_module(items)?);
        }
        Ok(program)
    }

    /// Parses a standalone expression (useful in tests and examples).
    pub fn parse_expr_str(&mut self, input: &str) -> Result<Expr, ParseError> {
        let forms = tokenize(input)?;
        let [form] = forms.as_slice() else {
            return Err(ParseError::new("expected exactly one expression"));
        };
        self.expr(form, &HashSet::new())
    }

    fn scan_form(&mut self, form: &Sexp) -> Result<(), ParseError> {
        let Sexp::List(items) = form else {
            return Ok(());
        };
        match items.first() {
            Some(Sexp::Atom(k)) if k == "define" => {
                match items.get(1) {
                    Some(Sexp::Atom(name)) => {
                        self.globals.insert(name.clone());
                    }
                    Some(Sexp::List(header)) => {
                        if let Some(Sexp::Atom(name)) = header.first() {
                            self.globals.insert(name.clone());
                        }
                    }
                    _ => {}
                }
                Ok(())
            }
            Some(Sexp::Atom(k)) if k == "struct" || k == "define-struct" => {
                let (Some(Sexp::Atom(name)), Some(Sexp::List(fields))) =
                    (items.get(1), items.get(2))
                else {
                    return Err(ParseError::new("struct expects a name and a field list"));
                };
                let fields: Vec<String> = fields
                    .iter()
                    .map(|f| match f {
                        Sexp::Atom(a) => Ok(a.clone()),
                        _ => Err(ParseError::new("struct fields must be identifiers")),
                    })
                    .collect::<Result<_, _>>()?;
                self.structs.insert(
                    name.clone(),
                    StructDef {
                        name: name.clone(),
                        fields,
                    },
                );
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn parse_module(&mut self, items: &[Sexp]) -> Result<Module, ParseError> {
        let Some(Sexp::Atom(name)) = items.get(1) else {
            return Err(ParseError::new("module expects a name"));
        };
        let mut module = Module {
            name: name.clone(),
            ..Module::default()
        };
        for form in &items[2..] {
            let Sexp::List(parts) = form else {
                return Err(ParseError::new("module forms must be lists"));
            };
            match parts.first() {
                Some(Sexp::Atom(k)) if k == "provide" => {
                    self.parse_provides(&parts[1..], &mut module)?;
                }
                Some(Sexp::Atom(k)) if k == "struct" || k == "define-struct" => {
                    if let (Some(Sexp::Atom(name)), Some(_)) = (parts.get(1), parts.get(2)) {
                        if let Some(def) = self.structs.get(name) {
                            module.structs.push(def.clone());
                        }
                    }
                }
                Some(Sexp::Atom(k)) if k == "define" => {
                    module.definitions.push(self.parse_define(&parts[1..])?);
                }
                Some(Sexp::Atom(k)) if k == "require" => {}
                _ => return Err(ParseError::new("unknown module form")),
            }
        }
        Ok(module)
    }

    fn parse_provides(&mut self, specs: &[Sexp], module: &mut Module) -> Result<(), ParseError> {
        for spec in specs {
            match spec {
                Sexp::List(parts) if matches!(parts.first(), Some(Sexp::Atom(k)) if k == "contract-out") =>
                {
                    self.parse_provides(&parts[1..], module)?;
                }
                Sexp::List(parts) => {
                    let [Sexp::Atom(name), contract] = parts.as_slice() else {
                        return Err(ParseError::new("provide spec is [name contract]"));
                    };
                    let contract = self.expr(contract, &HashSet::new())?;
                    module.provides.push(Provide {
                        name: name.clone(),
                        contract,
                    });
                }
                Sexp::Atom(name) => {
                    module.provides.push(Provide {
                        name: name.clone(),
                        contract: Expr::CAny,
                    });
                }
                Sexp::Str(_) => return Err(ParseError::new("provide spec is [name contract]")),
            }
        }
        Ok(())
    }

    fn parse_define(&mut self, parts: &[Sexp]) -> Result<Definition, ParseError> {
        match parts {
            [Sexp::Atom(name), body] => Ok(Definition {
                name: name.clone(),
                body: self.expr(body, &HashSet::new())?,
            }),
            [Sexp::List(header), body @ ..] if !body.is_empty() => {
                let Some(Sexp::Atom(name)) = header.first() else {
                    return Err(ParseError::new("define header needs a name"));
                };
                let params: Vec<String> = header[1..]
                    .iter()
                    .map(|p| match p {
                        Sexp::Atom(a) => Ok(a.clone()),
                        _ => Err(ParseError::new("parameters must be identifiers")),
                    })
                    .collect::<Result<_, _>>()?;
                let scope: HashSet<String> = params.iter().cloned().collect();
                let body_exprs: Vec<Expr> = body
                    .iter()
                    .map(|b| self.expr(b, &scope))
                    .collect::<Result<_, _>>()?;
                let body = if body_exprs.len() == 1 {
                    body_exprs.into_iter().next().expect("one body expression")
                } else {
                    Expr::Begin(body_exprs)
                };
                Ok(Definition {
                    name: name.clone(),
                    body: Expr::lam(params, body),
                })
            }
            _ => Err(ParseError::new("malformed define")),
        }
    }

    fn expr(&mut self, sexp: &Sexp, scope: &HashSet<String>) -> Result<Expr, ParseError> {
        match sexp {
            Sexp::Str(s) => Ok(Expr::Str(s.clone())),
            Sexp::Atom(atom) => self.atom(atom, scope),
            Sexp::List(items) => self.list(items, scope),
        }
    }

    fn atom(&mut self, atom: &str, scope: &HashSet<String>) -> Result<Expr, ParseError> {
        if atom == "#t" || atom == "#true" || atom == "true" {
            return Ok(Expr::Bool(true));
        }
        if atom == "#f" || atom == "#false" || atom == "false" {
            return Ok(Expr::Bool(false));
        }
        if atom == "empty" || atom == "null" {
            return Ok(Expr::Nil);
        }
        if atom == "•" || atom == "opaque" {
            let label = self.fresh_label();
            return Ok(Expr::Opaque(label));
        }
        if atom == "any/c" {
            return Ok(Expr::CAny);
        }
        if let Ok(n) = atom.parse::<i64>() {
            return Ok(Expr::Int(n));
        }
        if let Some(complex) = parse_complex(atom) {
            return Ok(complex);
        }
        // Bound names take precedence over everything else.
        if scope.contains(atom) || self.globals.contains(atom) {
            return Ok(Expr::var(atom));
        }
        // Struct-derived names.
        if let Some(expr) = self.struct_reference(atom) {
            return Ok(expr);
        }
        // Primitives referenced as values are eta-expanded.
        if let Some(prim) = Prim::from_name(atom) {
            let arity = prim.arity().unwrap_or(2);
            let params: Vec<String> = (0..arity).map(|i| format!("x{i}")).collect();
            let args: Vec<Expr> = params.iter().map(Expr::var).collect();
            let label = self.fresh_label();
            return Ok(Expr::lam(params, Expr::Prim(prim, args, label)));
        }
        Ok(Expr::var(atom))
    }

    fn struct_reference(&mut self, atom: &str) -> Option<Expr> {
        // Constructor.
        if let Some(def) = self.structs.get(atom).cloned() {
            let params: Vec<String> = def.fields.clone();
            let args: Vec<Expr> = params.iter().map(Expr::var).collect();
            return Some(Expr::lam(params, Expr::StructMake(def.name, args)));
        }
        // Predicate `name?`.
        if let Some(name) = atom.strip_suffix('?') {
            if self.structs.contains_key(name) {
                return Some(Expr::lam(
                    vec!["x"],
                    Expr::StructPred(name.to_string(), Box::new(Expr::var("x"))),
                ));
            }
        }
        // Accessor `name-field`.
        for (name, def) in &self.structs {
            if let Some(field) = atom.strip_prefix(&format!("{name}-")) {
                if let Some(index) = def.fields.iter().position(|f| f == field) {
                    let label = Label(self.next_label);
                    self.next_label += 1;
                    return Some(Expr::lam(
                        vec!["x"],
                        Expr::StructGet(name.clone(), index, Box::new(Expr::var("x")), label),
                    ));
                }
            }
        }
        None
    }

    #[allow(clippy::too_many_lines)]
    fn list(&mut self, items: &[Sexp], scope: &HashSet<String>) -> Result<Expr, ParseError> {
        let Some(head) = items.first() else {
            return Err(ParseError::new("empty application"));
        };
        if let Sexp::Atom(keyword) = head {
            let shadowed = scope.contains(keyword) || self.globals.contains(keyword);
            if !shadowed {
                match keyword.as_str() {
                    "quote" => return self.quoted(&items[1]),
                    "lambda" | "λ" => return self.lambda(items, scope),
                    "if" => {
                        let [_, c, t, e] = items else {
                            return Err(ParseError::new("if expects three sub-expressions"));
                        };
                        return Ok(Expr::ite(
                            self.expr(c, scope)?,
                            self.expr(t, scope)?,
                            self.expr(e, scope)?,
                        ));
                    }
                    "let" | "let*" | "letrec" => return self.let_form(keyword, items, scope),
                    "cond" => return self.cond(&items[1..], scope),
                    "when" | "unless" => return self.when_unless(keyword, items, scope),
                    "and" => {
                        return Ok(Expr::And(self.expr_list(&items[1..], scope)?));
                    }
                    "or" => {
                        return Ok(Expr::Or(self.expr_list(&items[1..], scope)?));
                    }
                    "begin" => {
                        return Ok(Expr::Begin(self.expr_list(&items[1..], scope)?));
                    }
                    "opaque" | "•" => {
                        let label = self.fresh_label();
                        return Ok(Expr::Opaque(label));
                    }
                    "->" => {
                        if items.len() < 2 {
                            return Err(ParseError::new("-> needs a range contract"));
                        }
                        let doms = self.expr_list(&items[1..items.len() - 1], scope)?;
                        let rng = self.expr(&items[items.len() - 1], scope)?;
                        return Ok(Expr::CArrow(doms, Box::new(rng)));
                    }
                    "and/c" => return Ok(Expr::CAnd(self.expr_list(&items[1..], scope)?)),
                    "or/c" => return Ok(Expr::COr(self.expr_list(&items[1..], scope)?)),
                    "cons/c" => {
                        let [_, car, cdr] = items else {
                            return Err(ParseError::new("cons/c expects two contracts"));
                        };
                        return Ok(Expr::CCons(
                            Box::new(self.expr(car, scope)?),
                            Box::new(self.expr(cdr, scope)?),
                        ));
                    }
                    "listof" | "list/c" => {
                        let [_, element] = items else {
                            return Err(ParseError::new("listof expects one contract"));
                        };
                        return Ok(Expr::CListOf(Box::new(self.expr(element, scope)?)));
                    }
                    "one-of/c" => return Ok(Expr::COneOf(self.expr_list(&items[1..], scope)?)),
                    "list" => {
                        // (list a b c) → (cons a (cons b (cons c '())))
                        let mut expr = Expr::Nil;
                        for item in items[1..].iter().rev() {
                            let label = self.fresh_label();
                            expr =
                                Expr::Prim(Prim::Cons, vec![self.expr(item, scope)?, expr], label);
                        }
                        return Ok(expr);
                    }
                    name => {
                        // Struct constructor in head position.
                        if let Some(def) = self.structs.get(name).cloned() {
                            let args = self.expr_list(&items[1..], scope)?;
                            if args.len() != def.fields.len() {
                                return Err(ParseError::new(format!(
                                    "constructor {name} expects {} fields",
                                    def.fields.len()
                                )));
                            }
                            return Ok(Expr::StructMake(def.name, args));
                        }
                        if let Some(pred) = name.strip_suffix('?') {
                            if self.structs.contains_key(pred) && items.len() == 2 {
                                let inner = self.expr(&items[1], scope)?;
                                return Ok(Expr::StructPred(pred.to_string(), Box::new(inner)));
                            }
                        }
                        if let Some(expr) = self.struct_accessor_app(name, items, scope)? {
                            return Ok(expr);
                        }
                        if let Some(prim) = Prim::from_name(name) {
                            let args = self.expr_list(&items[1..], scope)?;
                            if let Some(expected) = prim.arity() {
                                if args.len() != expected {
                                    return Err(ParseError::new(format!(
                                        "`{name}` expects {expected} argument(s), got {}",
                                        args.len()
                                    )));
                                }
                            }
                            let label = self.fresh_label();
                            return Ok(Expr::Prim(prim, args, label));
                        }
                    }
                }
            }
        }
        // Plain application.
        let function = self.expr(head, scope)?;
        let args = self.expr_list(&items[1..], scope)?;
        Ok(Expr::app(function, args))
    }

    fn struct_accessor_app(
        &mut self,
        name: &str,
        items: &[Sexp],
        scope: &HashSet<String>,
    ) -> Result<Option<Expr>, ParseError> {
        let found = self.structs.iter().find_map(|(struct_name, def)| {
            name.strip_prefix(&format!("{struct_name}-"))
                .and_then(|field| {
                    def.fields
                        .iter()
                        .position(|f| f == field)
                        .map(|index| (struct_name.clone(), index))
                })
        });
        let Some((struct_name, index)) = found else {
            return Ok(None);
        };
        if items.len() != 2 {
            return Err(ParseError::new(format!("{name} expects one argument")));
        }
        let inner = self.expr(&items[1], scope)?;
        let label = self.fresh_label();
        Ok(Some(Expr::StructGet(
            struct_name,
            index,
            Box::new(inner),
            label,
        )))
    }

    fn expr_list(
        &mut self,
        items: &[Sexp],
        scope: &HashSet<String>,
    ) -> Result<Vec<Expr>, ParseError> {
        items.iter().map(|i| self.expr(i, scope)).collect()
    }

    fn quoted(&mut self, sexp: &Sexp) -> Result<Expr, ParseError> {
        match sexp {
            Sexp::Str(s) => Ok(Expr::Str(s.clone())),
            Sexp::Atom(atom) => {
                if let Ok(n) = atom.parse::<i64>() {
                    Ok(Expr::Int(n))
                } else {
                    Ok(Expr::Str(atom.clone()))
                }
            }
            Sexp::List(items) => {
                let mut expr = Expr::Nil;
                for item in items.iter().rev() {
                    let label = self.fresh_label();
                    expr = Expr::Prim(Prim::Cons, vec![self.quoted(item)?, expr], label);
                }
                Ok(expr)
            }
        }
    }

    fn lambda(&mut self, items: &[Sexp], scope: &HashSet<String>) -> Result<Expr, ParseError> {
        let [_, Sexp::List(param_sexps), body @ ..] = items else {
            return Err(ParseError::new(
                "lambda expects a parameter list and a body",
            ));
        };
        if body.is_empty() {
            return Err(ParseError::new("lambda body is empty"));
        }
        let params: Vec<String> = param_sexps
            .iter()
            .map(|p| match p {
                Sexp::Atom(a) => Ok(a.clone()),
                _ => Err(ParseError::new("parameters must be identifiers")),
            })
            .collect::<Result<_, _>>()?;
        let mut inner = scope.clone();
        inner.extend(params.iter().cloned());
        let body_exprs = body
            .iter()
            .map(|b| self.expr(b, &inner))
            .collect::<Result<Vec<_>, _>>()?;
        let body = if body_exprs.len() == 1 {
            body_exprs.into_iter().next().expect("one body")
        } else {
            Expr::Begin(body_exprs)
        };
        Ok(Expr::lam(params, body))
    }

    fn let_form(
        &mut self,
        keyword: &str,
        items: &[Sexp],
        scope: &HashSet<String>,
    ) -> Result<Expr, ParseError> {
        let [_, Sexp::List(binding_sexps), body @ ..] = items else {
            return Err(ParseError::new("let expects bindings and a body"));
        };
        if body.is_empty() {
            return Err(ParseError::new("let body is empty"));
        }
        let recursive = keyword == "letrec";
        let sequential = keyword == "let*";
        let mut inner = scope.clone();
        let mut bindings = Vec::new();
        // Names of all bindings (for letrec scope).
        let names: Vec<String> = binding_sexps
            .iter()
            .map(|b| match b {
                Sexp::List(parts) => match parts.first() {
                    Some(Sexp::Atom(n)) => Ok(n.clone()),
                    _ => Err(ParseError::new("binding name must be an identifier")),
                },
                _ => Err(ParseError::new("bindings must be lists")),
            })
            .collect::<Result<_, _>>()?;
        if recursive {
            inner.extend(names.iter().cloned());
        }
        for (binding, name) in binding_sexps.iter().zip(&names) {
            let Sexp::List(parts) = binding else {
                return Err(ParseError::new("bindings must be lists"));
            };
            let [_, value] = parts.as_slice() else {
                return Err(ParseError::new("binding is [name expr]"));
            };
            let value_scope = if recursive || sequential {
                &inner
            } else {
                scope
            };
            let value = self.expr(value, value_scope)?;
            bindings.push((name.clone(), value));
            if sequential {
                inner.insert(name.clone());
            }
        }
        if !recursive && !sequential {
            inner.extend(names.iter().cloned());
        }
        let body_exprs = body
            .iter()
            .map(|b| self.expr(b, &inner))
            .collect::<Result<Vec<_>, _>>()?;
        let body = if body_exprs.len() == 1 {
            body_exprs.into_iter().next().expect("one body")
        } else {
            Expr::Begin(body_exprs)
        };
        Ok(Expr::Let {
            bindings,
            recursive,
            body: Box::new(body),
        })
    }

    fn cond(&mut self, clauses: &[Sexp], scope: &HashSet<String>) -> Result<Expr, ParseError> {
        match clauses.split_first() {
            None => Ok(Expr::Nil),
            Some((clause, rest)) => {
                let Sexp::List(parts) = clause else {
                    return Err(ParseError::new("cond clauses must be lists"));
                };
                let (test, body) = parts
                    .split_first()
                    .ok_or_else(|| ParseError::new("empty cond clause"))?;
                let body_exprs = self.expr_list(body, scope)?;
                let body_expr = match body_exprs.len() {
                    0 => Expr::Bool(true),
                    1 => body_exprs.into_iter().next().expect("one body"),
                    _ => Expr::Begin(body_exprs),
                };
                if matches!(test, Sexp::Atom(a) if a == "else") {
                    Ok(body_expr)
                } else {
                    Ok(Expr::ite(
                        self.expr(test, scope)?,
                        body_expr,
                        self.cond(rest, scope)?,
                    ))
                }
            }
        }
    }

    fn when_unless(
        &mut self,
        keyword: &str,
        items: &[Sexp],
        scope: &HashSet<String>,
    ) -> Result<Expr, ParseError> {
        let (test, body) = items[1..]
            .split_first()
            .ok_or_else(|| ParseError::new("when/unless needs a test"))?;
        let test = self.expr(test, scope)?;
        let body = Expr::Begin(self.expr_list(body, scope)?);
        Ok(if keyword == "when" {
            Expr::ite(test, body, Expr::Bool(false))
        } else {
            Expr::ite(test, Expr::Bool(false), body)
        })
    }
}

fn parse_complex(atom: &str) -> Option<Expr> {
    let body = atom.strip_suffix('i')?;
    // Find the sign separating real and imaginary parts (skip a leading sign).
    let split = body
        .char_indices()
        .skip(1)
        .find(|(_, c)| *c == '+' || *c == '-')
        .map(|(i, _)| i)?;
    let re: i64 = body[..split].parse().ok()?;
    let im_str = &body[split..];
    let im: i64 = if im_str == "+" {
        1
    } else if im_str == "-" {
        -1
    } else {
        im_str.parse().ok()?
    };
    Some(Expr::Complex(re, im))
}

/// Parses a program with a fresh parser, returning the program and the
/// struct declarations it contains.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_program(input: &str) -> Result<(Program, Vec<StructDef>), ParseError> {
    let mut parser = Parser::new();
    let program = parser.parse_program(input)?;
    let structs = parser.structs().cloned().collect();
    Ok((program, structs))
}

/// Parses a single expression with a fresh parser.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    Parser::new().parse_expr_str(input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_parse() {
        assert_eq!(parse_expr("42"), Ok(Expr::Int(42)));
        assert_eq!(parse_expr("#t"), Ok(Expr::Bool(true)));
        assert_eq!(parse_expr("#f"), Ok(Expr::Bool(false)));
        assert_eq!(parse_expr("\"hi\""), Ok(Expr::Str("hi".to_string())));
        assert_eq!(parse_expr("0+1i"), Ok(Expr::Complex(0, 1)));
        assert_eq!(parse_expr("'()"), Ok(Expr::Nil));
        assert_eq!(parse_expr("'x"), Ok(Expr::Str("x".to_string())));
    }

    #[test]
    fn printed_expressions_read_back() {
        // A fresh parser numbers labels in reading order, which printing
        // keeps, so the re-read expression is equal, labels included.
        for source in [
            "(λ (x y) ((x (λ (z) (if (equal? z 0) 100 0))) y))",
            "(let ([a 1] [b -2]) (letrec ([f (λ (n) (f n))]) (begin a b)))",
            "(and #t (or #f \"s\") '() 3-4i 0+1i)",
            "(-> (and/c integer? (λ (r) (> r 0))) (or/c (cons/c any/c any/c) (listof integer?)))",
            "(one-of/c 1 2)",
            "car",
            "(cond [(zero? x) 1] [else (+ x (- 1) (* 2 3))])",
        ] {
            let expr = parse_expr(source).expect("parses");
            let printed = expr.to_string();
            let reread = parse_expr(&printed).unwrap_or_else(|e| panic!("{printed}: {e}"));
            assert_eq!(reread, expr, "{source} printed as {printed}");
        }
        assert_eq!(
            parse_expr("(λ (x) ((x 1) 2))").expect("parses").to_string(),
            "(λ (x) ((x 1) 2))"
        );
    }

    #[test]
    fn lambda_and_application_parse() {
        let e = parse_expr("((lambda (x y) (+ x y)) 1 2)").expect("parses");
        match e {
            Expr::App(f, args) => {
                assert!(matches!(*f, Expr::Lam { .. }));
                assert_eq!(args.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cond_desugars_to_if() {
        let e = parse_expr("(cond [(zero? x) 1] [else 2])").expect("parses");
        assert!(matches!(e, Expr::If(_, _, _)));
    }

    #[test]
    fn quoted_lists_become_cons_chains() {
        let e = parse_expr("'(1 2)").expect("parses");
        match e {
            Expr::Prim(Prim::Cons, parts, _) => {
                assert_eq!(parts[0], Expr::Int(1));
                assert!(matches!(&parts[1], Expr::Prim(Prim::Cons, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bare_predicates_eta_expand() {
        let e = parse_expr("number?").expect("parses");
        assert!(matches!(e, Expr::Lam { .. }));
    }

    #[test]
    fn contracts_parse() {
        let e = parse_expr("(-> number? (and/c integer? positive))").expect("parses");
        match e {
            Expr::CArrow(doms, rng) => {
                assert_eq!(doms.len(), 1);
                assert!(matches!(*rng, Expr::CAnd(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn modules_with_provides_and_defines_parse() {
        let source = r#"
        (module m
          (provide [f (-> integer? integer?)])
          (define (f x) (+ x 1)))
        "#;
        let (program, _) = parse_program(source).expect("parses");
        assert_eq!(program.modules.len(), 1);
        let module = &program.modules[0];
        assert_eq!(module.name, "m");
        assert_eq!(module.provides.len(), 1);
        assert_eq!(module.definitions.len(), 1);
    }

    #[test]
    fn structs_generate_constructors_and_accessors() {
        let source = r#"
        (module m
          (struct posn (x y))
          (provide [dist (-> posn? integer?)])
          (define (dist p) (+ (posn-x p) (posn-y p))))
        "#;
        let (program, structs) = parse_program(source).expect("parses");
        assert_eq!(structs.len(), 1);
        let def = &program.modules[0].definitions[0];
        let mut saw_get = false;
        def.body.walk(&mut |e| {
            if matches!(e, Expr::StructGet(name, _, _, _) if name == "posn") {
                saw_get = true;
            }
        });
        assert!(saw_get);
    }

    #[test]
    fn defined_names_shadow_primitives() {
        let source = r#"
        (module m
          (provide [max (-> integer? integer? integer?)])
          (define (max a b) (if (< a b) b a))
          (define (use x) (max x 0)))
        "#;
        let (program, _) = parse_program(source).expect("parses");
        let use_def = &program.modules[0].definitions[1];
        let mut saw_var_max = false;
        use_def.body.walk(&mut |e| {
            if let Expr::App(f, _) = e {
                if matches!(f.as_ref(), Expr::Var(n) if n == "max") {
                    saw_var_max = true;
                }
            }
        });
        assert!(saw_var_max, "max should resolve to the user definition");
    }

    #[test]
    fn bare_definitions_become_the_main_module() {
        let source = "(define (f x) x) (provide [f any/c])";
        let (program, _) = parse_program(source).expect("parses");
        assert_eq!(program.modules[0].name, "main");
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_expr("(").is_err());
        assert!(parse_expr("()").is_err());
        assert!(parse_expr("(lambda x)").is_err());
        assert!(parse_program("").is_err());
        assert!(parse_expr("(car 1 2)").is_err());
    }
}
