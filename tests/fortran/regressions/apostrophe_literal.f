      PROGRAM QUOTES
      CHARACTER*8 S
      S = 'DON''T'
      PRINT *, "IT'S"
      PRINT *, 'SAY "HI"', "SAY ""HI"""
      STOP 'CAN''T'
      END
