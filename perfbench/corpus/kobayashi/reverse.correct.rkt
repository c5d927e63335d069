(module reverse
  (provide [main (-> (listof integer?) (listof integer?))])
  (define (rev acc xs) (if (null? xs) acc (rev (cons (car xs) acc) (cdr xs))))
  (define (main xs) (rev '() xs)))
