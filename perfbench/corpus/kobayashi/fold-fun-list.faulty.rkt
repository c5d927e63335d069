(module fold-fun-list
  (provide [main (-> (listof (-> integer? integer?)) integer? integer?)])
  (define (compose-all fs x)
    (if (null? fs) x (compose-all (cdr fs) ((car fs) x))))
  (define (main fs n)
    (/ 100 (compose-all fs n))))
